// Package snap implements the compact binary codec behind the
// warm-state snapshot subsystem: varint-encoded primitives with a
// sticky error on both ends, tagged sections so a reader can detect
// that it is decoding the wrong structure, and a versioned envelope
// wrapped around every snapshot stream.
//
// The codec is deliberately minimal — every structure that snapshots
// itself (sram arrays, DRAM trackers, cache designs) hand-writes its
// fields in a fixed order, and validates identity tags and geometry on
// load. Nothing here is reflective: a snapshot is only ever restored
// into a structure built from the same configuration, so mismatches
// are configuration bugs and fail loudly.
package snap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"fpcache/internal/fault"
)

// corruptf builds a snapshot-corruption error carrying the taxonomy
// sentinel (fault.ErrCorruptSnapshot), so the warm-cache quarantine
// and the sweep's failure report classify decode failures without
// matching message strings. Args may include a wrapped cause via %w.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("snap: "+format+": %w", append(args, fault.ErrCorruptSnapshot)...)
}

// Magic identifies a snapshot envelope.
const Magic = uint64(0xF007_57A7) // "FOOT-STAT"

// maxStringLen bounds decoded string lengths so a corrupt length
// prefix cannot drive a giant allocation.
const maxStringLen = 1 << 16

// Writer encodes snapshot fields. Errors are sticky: the first write
// error is kept and every later call is a no-op, so callers check once
// at Flush.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriterSize(w, 1<<16)} }

// Err returns the sticky error.
func (w *Writer) Err() error { return w.err }

// Flush commits buffered bytes and returns the sticky error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, w.err = w.w.Write(buf[:n])
}

// I64 writes a zigzag-encoded signed varint.
func (w *Writer) I64(v int64) { w.U64(uint64(v<<1) ^ uint64(v>>63)) }

// Bool writes a single byte.
func (w *Writer) Bool(v bool) {
	if w.err != nil {
		return
	}
	b := byte(0)
	if v {
		b = 1
	}
	w.err = w.w.WriteByte(b)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	if len(s) > maxStringLen {
		if w.err == nil {
			//fplint:ignore faulterr save-side guard against writing an unreadable stream; nothing on disk to classify or quarantine
			w.err = fmt.Errorf("snap: string of %d bytes exceeds the %d-byte limit", len(s), maxStringLen)
		}
		return
	}
	w.U64(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

// Tag writes a section identifier; Reader.Expect validates it.
func (w *Writer) Tag(tag string) { w.String(tag) }

// Reader decodes snapshot fields with the same sticky-error contract:
// after the first error every call returns the zero value.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReaderSize(r, 1<<16)} }

// Err returns the sticky error.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.fail(corruptf("reading varint: %w", err))
		return 0
	}
	return v
}

// I64 reads a zigzag-encoded signed varint.
func (r *Reader) I64() int64 {
	u := r.U64()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads a single byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	b, err := r.r.ReadByte()
	if err != nil {
		r.fail(corruptf("reading bool: %w", err))
		return false
	}
	return b != 0
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.U64()
	if r.err != nil {
		return ""
	}
	if n > maxStringLen {
		r.fail(corruptf("string length %d exceeds the %d-byte limit", n, maxStringLen))
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		r.fail(corruptf("reading string: %w", err))
		return ""
	}
	return string(buf)
}

// Expect reads a section tag and fails unless it matches want —
// the guard against restoring a snapshot into the wrong structure.
func (r *Reader) Expect(want string) {
	got := r.String()
	if r.err == nil && got != want {
		r.fail(corruptf("section %q, want %q", got, want))
	}
}

// WriteEnvelope writes a versioned snapshot envelope (magic, version,
// kind) followed by the body, and flushes. Envelopes written back to
// back on one stream are read back with consecutive ReadEnvelope calls
// only if the caller shares a single Reader; the usual arrangement is
// one envelope per logical snapshot with tagged sections inside.
func WriteEnvelope(dst io.Writer, kind string, version uint16, body func(*Writer)) error {
	w := NewWriter(dst)
	w.U64(Magic)
	w.U64(uint64(version))
	w.String(kind)
	body(w)
	return w.Flush()
}

// ReadEnvelope validates the envelope header (magic, version, kind)
// and hands the body to fn.
func ReadEnvelope(src io.Reader, kind string, version uint16, fn func(*Reader) error) error {
	r := NewReader(src)
	if m := r.U64(); r.err == nil && m != Magic {
		return corruptf("bad magic %#x; not a snapshot", m)
	}
	if v := r.U64(); r.err == nil && v != uint64(version) {
		return corruptf("snapshot version %d, want %d", v, version)
	}
	if k := r.String(); r.err == nil && k != kind {
		return corruptf("snapshot kind %q, want %q", k, kind)
	}
	if r.err != nil {
		return r.err
	}
	if err := fn(r); err != nil {
		return err
	}
	return r.err
}
