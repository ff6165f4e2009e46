package faultinject

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestParseRejectsMalformedSpecs(t *testing.T) {
	for _, spec := range []string{
		"point",                       // no action
		"disk:flipbit:offset=1",       // unknown site
		"point:explode",               // unknown action
		"point:flipbit:offset=1",      // I/O action on point site
		"snapshot-read:panic",         // point action on I/O site
		"point:error:point=x",         // non-numeric value
		"point:error:bogus=1",         // unknown param
		"snapshot-read:flipbit:bit=9", // bit out of range
		"point:sleep:ms",              // param without value
		// Negative values: selectors would match everything, offsets
		// and truncation points would silently change meaning.
		"point:error:point=-2",
		"point:error:sweep=-1",
		"snapshot-read:flipbit:offset=1,nth=-1",
		"snapshot-read:flipbit:offset=-3",
		"snapshot-write:truncate:at=-1",
		"point:sleep:ms=-5",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded", spec)
		}
	}
	in, err := Parse(" ; ")
	if err != nil || in.Active() {
		t.Fatalf("empty spec: %v active=%v", err, in.Active())
	}
}

func TestPointSweepSelector(t *testing.T) {
	in, err := Parse("point:error:sweep=1,point=0")
	if err != nil {
		t.Fatal(err)
	}
	if s := in.NextSweep(); s != 0 {
		t.Fatalf("first sweep ordinal %d", s)
	}
	if err := in.Point(0, 0); err != nil {
		t.Fatalf("sweep 0 faulted: %v", err)
	}
	if err := in.Point(1, 0); err == nil {
		t.Fatalf("sweep 1 point 0: %v, want permanent error", err)
	}
}

func TestPointPanic(t *testing.T) {
	in, err := Parse("point:panic:point=2")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	in.Point(0, 2)
}

func TestReaderFlipBit(t *testing.T) {
	in, err := Parse("snapshot-read:flipbit:offset=5,bit=3")
	if err != nil {
		t.Fatal(err)
	}
	src := []byte("0123456789")
	got, rerr := io.ReadAll(in.Reader(SiteSnapshotRead, bytes.NewReader(src)))
	if rerr != nil {
		t.Fatal(rerr)
	}
	want := append([]byte(nil), src...)
	want[5] ^= 1 << 3
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
	// Other sites pass through unwrapped.
	if r := in.Reader(SiteTraceRead, bytes.NewReader(src)); r != io.Reader(bytes.NewReader(src)) {
		if _, ok := r.(*bytes.Reader); !ok {
			t.Fatalf("unfaulted site got wrapped: %T", r)
		}
	}
}

func TestReaderFlipBitAcrossSmallReads(t *testing.T) {
	in, err := Parse("trace-read:flipbit:offset=7,bit=0")
	if err != nil {
		t.Fatal(err)
	}
	r := in.Reader(SiteTraceRead, bytes.NewReader([]byte("abcdefghij")))
	var got []byte
	buf := make([]byte, 3) // the fault offset lands mid-buffer
	for {
		n, rerr := r.Read(buf)
		got = append(got, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	want := []byte("abcdefghij")
	want[7] ^= 1
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestReaderTruncate(t *testing.T) {
	in, err := Parse("snapshot-read:truncate:at=4")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(in.Reader(SiteSnapshotRead, strings.NewReader("0123456789")))
	if string(got) != "0123" {
		t.Fatalf("got %q", got)
	}
}

func TestWriterFlipBitAndTornWrite(t *testing.T) {
	in, err := Parse("snapshot-write:flipbit:offset=1,bit=7;snapshot-write:truncate:at=6")
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	w := in.Writer(SiteSnapshotWrite, &sink)
	n, werr := w.Write([]byte("0123456789"))
	if werr != nil || n != 10 {
		t.Fatalf("torn write must report success: n=%d err=%v", n, werr)
	}
	want := []byte("012345")
	want[1] ^= 1 << 7
	if !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("landed %q want %q", sink.Bytes(), want)
	}
}

func TestReadSeekerFaultsAtAbsoluteOffsets(t *testing.T) {
	in, err := Parse("trace-read:flipbit:offset=8,bit=1")
	if err != nil {
		t.Fatal(err)
	}
	rs := in.ReadSeeker(SiteTraceRead, bytes.NewReader([]byte("0123456789abcdef")))
	if _, err := rs.Seek(6, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(rs, got); err != nil {
		t.Fatal(err)
	}
	want := []byte("6789")
	want[2] ^= 1 << 1 // absolute offset 8
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
	// Re-reading the same range hits the same corruption.
	if _, err := rs.Seek(8, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := io.ReadFull(rs, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != '8'^(1<<1) {
		t.Fatalf("seeked re-read got %q", b)
	}
}
