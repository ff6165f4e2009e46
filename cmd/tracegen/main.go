// Command tracegen writes a synthetic workload trace to disk in the
// binary trace format, so external tools (or repeated cache studies)
// can replay identical reference streams.
//
// Format v1 (the default) is a flat fixed-width record dump; -v2
// writes trace format v2 — delta/varint-compressed records in
// independently decodable, CRC-protected chunks with a trailing chunk
// index, which seekable readers (memtrace.FileReader, fpsim -skip and
// -state-cache fast-forwarding) use to jump to any record without
// decoding the prefix. -index inspects an existing trace file of
// either version; -verify is the trace fsck — it walks every chunk
// (CRC, framing, full record decode, index agreement) and exits
// non-zero naming the first corrupt chunk and offset.
//
// Usage:
//
//	tracegen -workload mapreduce -refs 5000000 -o mapreduce.trace
//	tracegen -workload mapreduce -refs 5000000 -v2 -o mapreduce.trace
//	tracegen -index mapreduce.trace
//	tracegen -verify mapreduce.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"fpcache"
	"fpcache/internal/memtrace"
)

func main() {
	var (
		workload = flag.String("workload", fpcache.WebSearch, "workload name")
		refs     = flag.Int("refs", 1_000_000, "number of references to emit")
		scale    = flag.Float64("scale", fpcache.DefaultScale, "capacity scale factor")
		seed     = flag.Int64("seed", 1, "random seed")
		v2       = flag.Bool("v2", false, "write trace format v2 (chunked, delta-compressed, seekable)")
		chunk    = flag.Int("chunk", memtrace.DefaultChunkRecords, "records per v2 chunk")
		index    = flag.String("index", "", "print the chunk index of an existing trace file and exit")
		verify   = flag.String("verify", "", "verify an existing trace file (chunk CRCs, framing, index) and exit")
		out      = flag.String("o", "", "output file (required)")
	)
	flag.Parse()

	if *index != "" {
		if err := printIndex(*index); err != nil {
			fail(err)
		}
		return
	}
	if *verify != "" {
		if err := verifyTrace(*verify); err != nil {
			fail(err)
		}
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -o output file is required")
		os.Exit(2)
	}

	src, _, err := fpcache.NewTrace(fpcache.Config{
		Workload: *workload, Scale: *scale, Seed: *seed, Refs: *refs,
	})
	if err != nil {
		fail(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	wrote, err := writeTrace(f, src, *refs, *v2, *chunk)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail(err)
	}
	version := 1
	if *v2 {
		version = 2
	}
	fmt.Printf("tracegen: wrote %d records of %s to %s (format v%d)\n", wrote, *workload, *out, version)
}

// writeTrace drains up to refs records from src into w in the chosen
// format.
func writeTrace(w *os.File, src memtrace.Source, refs int, v2 bool, chunkRecs int) (uint64, error) {
	if v2 {
		tw := memtrace.NewWriterV2(w)
		if err := tw.SetChunkRecords(chunkRecs); err != nil {
			return 0, err
		}
		for i := 0; i < refs; i++ {
			rec, ok := src.Next()
			if !ok {
				break
			}
			if err := tw.Write(rec); err != nil {
				return tw.Count(), err
			}
		}
		return tw.Count(), tw.Close()
	}
	tw := memtrace.NewWriter(w)
	for i := 0; i < refs; i++ {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := tw.Write(rec); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Flush()
}

// printIndex opens a trace file and reports its version, record count,
// and (for v2) the chunk index.
func printIndex(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fr, err := memtrace.NewFileReader(f)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("%s: format v%d, %d records, %d bytes", path, fr.Version(), fr.Len(), st.Size())
	if fr.Len() > 0 {
		fmt.Printf(" (%.2f bytes/record)", float64(st.Size())/float64(fr.Len()))
	}
	fmt.Println()
	offsets, starts, counts := fr.Chunks()
	if len(offsets) == 0 {
		return nil
	}
	fmt.Printf("%6s %12s %12s %10s\n", "chunk", "offset", "first rec", "records")
	for i := range offsets {
		fmt.Printf("%6d %12d %12d %10d\n", i, offsets[i], starts[i], counts[i])
	}
	return nil
}

// verifyTrace runs the full-file integrity scan and reports the
// verdict; any corruption (first bad chunk and offset) comes back as
// an error, which fail() turns into a non-zero exit.
func verifyTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fr, err := memtrace.NewFileReader(f)
	if err != nil {
		return err
	}
	if err := fr.Verify(); err != nil {
		return err
	}
	offsets, _, _ := fr.Chunks()
	fmt.Printf("%s: ok — format v%d, %d records, %d chunks verified\n",
		path, fr.Version(), fr.Len(), len(offsets))
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
