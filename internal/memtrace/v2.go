package memtrace

// Trace format v2: a streaming-friendly, seekable container for
// billion-reference traces.
//
// Layout (all integers varint unless noted):
//
//	header    magic u32le | version u16le = 2 | 2 reserved bytes
//	frames    chunk frames, then one index frame
//	chunk     0x01 | record count | payload length | payload | crc32c u32le
//	index     0x00 | chunk count | {offset delta, record count}* | total u64le
//	footer    index size u32le | "FPIX" magic u32le   (fixed 8 bytes)
//
// Records inside a chunk are delta/varint encoded (PC and Addr as
// zigzag deltas against the previous record, Gap as a plain varint,
// flags and core as raw bytes) with the delta baselines reset at every
// chunk boundary, so each chunk decodes independently of all others.
// The index frame's chunk offsets are deltas between successive chunk
// starts (the first is the absolute offset of the first chunk); the
// fixed-size footer lets a seekable reader locate the index from the
// end of the file. Streaming readers ignore the index entirely: chunk
// frames are self-framing and CRC-protected, and the index frame's
// marker byte doubles as the end-of-records sentinel.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

const (
	chunkMarker = 0x01
	indexMarker = 0x00
	// DefaultChunkRecords is WriterV2's records-per-chunk default: big
	// enough to amortize framing, small enough that a Seek decodes at
	// most a few hundred KB.
	DefaultChunkRecords = 4096
	indexMagic          = uint32(0x46504958) // "FPIX"
	footerBytes         = 8
	// maxChunkPayload bounds a chunk's encoded size so a corrupt
	// length prefix cannot drive a giant allocation (a full chunk of
	// worst-case records stays far below this).
	maxChunkPayload = 64 << 20
	// writerChunkFlushBytes is WriterV2's payload soft cap: the chunk
	// flushes once its encoding reaches this size even if the record
	// target is not met, so an oversized SetChunkRecords can never
	// produce a chunk the readers' maxChunkPayload guard would reject.
	// The margin covers one worst-case record appended past the check.
	writerChunkFlushBytes = maxChunkPayload - 64
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendRecordV2 delta-encodes r against the previous record's PC and
// address, updating the baselines.
func appendRecordV2(buf []byte, r Record, prevPC, prevAddr *uint64) []byte {
	buf = binary.AppendUvarint(buf, zigzag(int64(uint64(r.PC)-*prevPC)))
	buf = binary.AppendUvarint(buf, zigzag(int64(uint64(r.Addr)-*prevAddr)))
	flags := byte(0)
	if r.Write {
		flags = 1
	}
	buf = append(buf, flags, r.Core)
	buf = binary.AppendUvarint(buf, uint64(r.Gap))
	*prevPC, *prevAddr = uint64(r.PC), uint64(r.Addr)
	return buf
}

// chunkDecoder decodes records from one chunk payload.
type chunkDecoder struct {
	payload          []byte
	pos              int
	left             int // records remaining in the payload
	prevPC, prevAddr uint64
}

// reset points the decoder at a fresh chunk payload.
func (d *chunkDecoder) reset(payload []byte, records int) {
	d.payload, d.pos, d.left = payload, 0, records
	d.prevPC, d.prevAddr = 0, 0
}

// next decodes one record; the caller checks d.left first.
func (d *chunkDecoder) next() (Record, error) {
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(d.payload[d.pos:])
		if n <= 0 {
			return 0, corruptf("chunk payload truncated at byte %d", d.pos)
		}
		d.pos += n
		return v, nil
	}
	dpc, err := uvarint()
	if err != nil {
		return Record{}, err
	}
	daddr, err := uvarint()
	if err != nil {
		return Record{}, err
	}
	if d.pos+2 > len(d.payload) {
		return Record{}, corruptf("chunk payload truncated at byte %d", d.pos)
	}
	flags, core := d.payload[d.pos], d.payload[d.pos+1]
	d.pos += 2
	gap, err := uvarint()
	if err != nil {
		return Record{}, err
	}
	if gap > (1<<32)-1 {
		return Record{}, corruptf("record gap %d overflows 32 bits", gap)
	}
	d.prevPC += uint64(unzigzag(dpc))
	d.prevAddr += uint64(unzigzag(daddr))
	d.left--
	return Record{
		PC:    PC(d.prevPC),
		Addr:  Addr(d.prevAddr),
		Core:  core,
		Write: flags&1 != 0,
		Gap:   uint32(gap),
	}, nil
}

// v2Chunk is one chunk-index entry.
type v2Chunk struct {
	offset  uint64 // file offset of the chunk's marker byte
	start   uint64 // index of the chunk's first record
	records uint64
}

// WriterV2 streams records to an io.Writer in trace format v2,
// accumulating the chunk index in memory and appending it on Close.
type WriterV2 struct {
	w         io.Writer
	chunkRecs int
	buf       []byte
	curRecs   int
	prevPC    uint64
	prevAddr  uint64
	offset    uint64
	index     []v2Chunk
	wrote     uint64
	started   bool
	closed    bool
}

// NewWriterV2 wraps w with the default chunk size.
func NewWriterV2(w io.Writer) *WriterV2 {
	return &WriterV2{w: w, chunkRecs: DefaultChunkRecords}
}

// SetChunkRecords overrides the records-per-chunk target; it must be
// called before the first Write.
func (tw *WriterV2) SetChunkRecords(n int) error {
	if tw.started {
		//fplint:ignore faulterr caller API misuse, not trace damage; ClassUnknown (no quarantine) is right
		return fmt.Errorf("memtrace: SetChunkRecords after first Write")
	}
	if n < 1 {
		//fplint:ignore faulterr caller API misuse, not trace damage; ClassUnknown (no quarantine) is right
		return fmt.Errorf("memtrace: chunk size %d must be positive", n)
	}
	tw.chunkRecs = n
	return nil
}

// Count returns the number of records written so far.
func (tw *WriterV2) Count() uint64 { return tw.wrote }

func (tw *WriterV2) write(p []byte) error {
	n, err := tw.w.Write(p)
	tw.offset += uint64(n)
	return err
}

func (tw *WriterV2) header() error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint16(hdr[4:], version2)
	return tw.write(hdr[:])
}

// Write appends one record.
func (tw *WriterV2) Write(r Record) error {
	if tw.closed {
		//fplint:ignore faulterr caller API misuse, not trace damage; ClassUnknown (no quarantine) is right
		return fmt.Errorf("memtrace: Write after Close")
	}
	if !tw.started {
		if err := tw.header(); err != nil {
			return err
		}
		tw.started = true
	}
	tw.buf = appendRecordV2(tw.buf, r, &tw.prevPC, &tw.prevAddr)
	tw.curRecs++
	tw.wrote++
	if tw.curRecs >= tw.chunkRecs || len(tw.buf) >= writerChunkFlushBytes {
		return tw.flushChunk()
	}
	return nil
}

// flushChunk frames and writes the pending chunk.
func (tw *WriterV2) flushChunk() error {
	frame := make([]byte, 0, len(tw.buf)+2*binary.MaxVarintLen64+5)
	frame = append(frame, chunkMarker)
	frame = binary.AppendUvarint(frame, uint64(tw.curRecs))
	frame = binary.AppendUvarint(frame, uint64(len(tw.buf)))
	frame = append(frame, tw.buf...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(tw.buf, crcTable))
	tw.index = append(tw.index, v2Chunk{offset: tw.offset, records: uint64(tw.curRecs)})
	if err := tw.write(frame); err != nil {
		return err
	}
	tw.buf = tw.buf[:0]
	tw.curRecs = 0
	tw.prevPC, tw.prevAddr = 0, 0
	return nil
}

// Close flushes the pending chunk and appends the index frame and
// footer. The writer is unusable afterwards. An empty trace still gets
// a header and an empty index.
func (tw *WriterV2) Close() error {
	if tw.closed {
		return nil
	}
	if !tw.started {
		if err := tw.header(); err != nil {
			return err
		}
		tw.started = true
	}
	if tw.curRecs > 0 {
		if err := tw.flushChunk(); err != nil {
			return err
		}
	}
	idx := []byte{indexMarker}
	idx = binary.AppendUvarint(idx, uint64(len(tw.index)))
	prev := uint64(0)
	for _, c := range tw.index {
		idx = binary.AppendUvarint(idx, c.offset-prev)
		idx = binary.AppendUvarint(idx, c.records)
		prev = c.offset
	}
	idx = binary.LittleEndian.AppendUint64(idx, tw.wrote)
	footer := make([]byte, 0, footerBytes)
	footer = binary.LittleEndian.AppendUint32(footer, uint32(len(idx)))
	footer = binary.LittleEndian.AppendUint32(footer, indexMagic)
	tw.closed = true
	if err := tw.write(idx); err != nil {
		return err
	}
	return tw.write(footer)
}

// readChunkFrame reads and validates one chunk frame (marker already
// consumed) from r, returning its payload (decoded into dst, grown as
// needed) and record count.
func readChunkFrame(r *bufio.Reader, dst []byte) (payload []byte, records int, err error) {
	recs, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, corruptf("reading chunk record count: %w", err)
	}
	plen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, corruptf("reading chunk length: %w", err)
	}
	if plen > maxChunkPayload {
		return nil, 0, corruptf("chunk payload of %d bytes exceeds the %d-byte limit", plen, maxChunkPayload)
	}
	if recs > plen {
		// Every record costs at least one byte; a higher count is
		// corruption, not a dense encoding.
		return nil, 0, corruptf("chunk claims %d records in %d bytes", recs, plen)
	}
	if uint64(cap(dst)) < plen {
		dst = make([]byte, plen)
	}
	dst = dst[:plen]
	if _, err := io.ReadFull(r, dst); err != nil {
		return nil, 0, corruptf("reading chunk payload: %w", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, 0, corruptf("reading chunk crc: %w", err)
	}
	if got, want := crc32.Checksum(dst, crcTable), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return nil, 0, corruptf("chunk crc mismatch (%#x, want %#x)", got, want)
	}
	return dst, int(recs), nil
}

// nextV2 advances the streaming reader through chunk frames.
func (tr *Reader) nextV2() (Record, bool) {
	for tr.chunk.left == 0 {
		if tr.finished {
			return Record{}, false
		}
		marker, err := tr.r.ReadByte()
		if err != nil {
			tr.err = corruptf("v2 trace truncated (missing chunk index): %w", err)
			return Record{}, false
		}
		switch marker {
		case indexMarker:
			tr.finished = true
			tr.checkIndex()
			return Record{}, false
		case chunkMarker:
			payload, recs, err := readChunkFrame(tr.r, tr.chunk.payload)
			if err != nil {
				tr.err = err
				return Record{}, false
			}
			tr.chunk.reset(payload, recs)
		default:
			tr.err = corruptf("unknown frame marker %#x", marker)
			return Record{}, false
		}
	}
	rec, err := tr.chunk.next()
	if err != nil {
		tr.err = err
		return Record{}, false
	}
	tr.read++
	return rec, true
}

// checkIndex consumes the trailing index frame (marker already read)
// and cross-checks its total against the records delivered, so a
// mid-file truncation that happens to land on a frame boundary is
// still detected.
func (tr *Reader) checkIndex() {
	n, err := binary.ReadUvarint(tr.r)
	if err != nil {
		tr.err = corruptf("reading chunk index: %w", err)
		return
	}
	for i := uint64(0); i < n; i++ {
		if _, err := binary.ReadUvarint(tr.r); err == nil {
			_, err = binary.ReadUvarint(tr.r)
		}
		if err != nil {
			tr.err = corruptf("reading chunk index entry %d: %w", i, err)
			return
		}
	}
	var buf [8]byte
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		tr.err = corruptf("reading trace total: %w", err)
		return
	}
	if total := binary.LittleEndian.Uint64(buf[:]); total != tr.read {
		tr.err = corruptf("trace index records %d references, stream delivered %d", total, tr.read)
	}
}

// FileReader is the random-access face of the trace formats: a Source
// over an io.ReadSeeker that can jump to any record index — O(1) for
// fixed-width v1 files, one chunk decode for indexed v2 files.
type FileReader struct {
	rs      io.ReadSeeker
	br      *bufio.Reader
	version uint16
	total   uint64
	size    int64  // file size in bytes
	next    uint64 // index of the record the next Next returns
	limit   uint64 // Next stops at this record index (total, or a section end)
	err     error

	// v2 state.
	chunks []v2Chunk
	cur    int // chunks[cur] is loaded in chunk; len(chunks) = exhausted
	chunk  chunkDecoder
}

// NewFileReader opens a trace file of either version, reading the v2
// chunk index from the trailer. v2 files without a valid index are
// rejected — stream them with NewReader instead.
func NewFileReader(rs io.ReadSeeker) (*FileReader, error) {
	fr := &FileReader{rs: rs, br: bufio.NewReaderSize(rs, 1<<16)}
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	fr.br.Reset(rs)
	v, err := readHeader(fr.br)
	if err != nil {
		return nil, err
	}
	fr.version = v
	size, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	fr.size = size
	if v == version1 {
		if (size-8)%22 != 0 {
			return nil, corruptf("v1 trace of %d bytes is truncated mid-record", size)
		}
		fr.total = uint64(size-8) / 22
	} else if err := fr.loadIndex(size); err != nil {
		return nil, err
	}
	fr.limit = fr.total
	return fr, fr.SeekRecord(0)
}

// OpenSection returns an independent reader over the record range
// [start, start+n) of the same trace file — the unit of work of the
// interval-parallel runner. The section shares the parent's decoded
// chunk index (read-only) but owns its file cursor, buffer, and
// decoder state, so any number of sections (and the parent) can read
// concurrently: the underlying reader must implement io.ReaderAt
// (os.File does; sections read through positioned io.SectionReader
// views, never the shared seek offset). Len still reports the whole
// trace; the section's Next exhausts after n records.
func (fr *FileReader) OpenSection(start, n uint64) (*FileReader, error) {
	ra, ok := fr.rs.(io.ReaderAt)
	if !ok {
		//fplint:ignore faulterr caller API misuse, not trace damage; ClassUnknown (no quarantine) is right
		return nil, fmt.Errorf("memtrace: trace reader %T is not an io.ReaderAt; concurrent sections need random access", fr.rs)
	}
	if start > fr.total || n > fr.total-start {
		return nil, corruptf("section [%d, %d) outside trace of %d records", start, start+n, fr.total)
	}
	sub := &FileReader{
		rs:      io.NewSectionReader(ra, 0, fr.size),
		version: fr.version,
		total:   fr.total,
		size:    fr.size,
		limit:   start + n,
		chunks:  fr.chunks,
	}
	sub.br = bufio.NewReaderSize(sub.rs, 1<<16)
	return sub, sub.SeekRecord(start)
}

// loadIndex locates and decodes the v2 chunk index from the footer.
func (fr *FileReader) loadIndex(size int64) error {
	if size < 8+footerBytes {
		return corruptf("v2 trace of %d bytes has no room for a footer", size)
	}
	var footer [footerBytes]byte
	if _, err := fr.rs.Seek(size-footerBytes, io.SeekStart); err != nil {
		return err
	}
	if _, err := io.ReadFull(fr.rs, footer[:]); err != nil {
		return corruptf("reading footer: %w", err)
	}
	if m := binary.LittleEndian.Uint32(footer[4:]); m != indexMagic {
		return corruptf("bad index magic %#x (trace truncated or not indexed)", m)
	}
	idxSize := int64(binary.LittleEndian.Uint32(footer[0:]))
	idxStart := size - footerBytes - idxSize
	if idxStart < 8 {
		return corruptf("index size %d overruns the file", idxSize)
	}
	if _, err := fr.rs.Seek(idxStart, io.SeekStart); err != nil {
		return err
	}
	fr.br.Reset(fr.rs)
	marker, err := fr.br.ReadByte()
	if err != nil {
		return corruptf("reading index marker: %w", err)
	}
	if marker != indexMarker {
		return corruptf("index frame marker %#x, want %#x (corrupt index)", marker, indexMarker)
	}
	n, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return corruptf("reading chunk count: %w", err)
	}
	if int64(n) > size {
		return corruptf("chunk count %d exceeds file size", n)
	}
	fr.chunks = make([]v2Chunk, 0, n)
	var offset, start uint64
	for i := uint64(0); i < n; i++ {
		d, err := binary.ReadUvarint(fr.br)
		if err != nil {
			return corruptf("reading chunk %d offset: %w", i, err)
		}
		recs, err := binary.ReadUvarint(fr.br)
		if err != nil {
			return corruptf("reading chunk %d record count: %w", i, err)
		}
		offset += d
		if offset < 8 || int64(offset) >= idxStart || recs == 0 {
			return corruptf("chunk %d (offset %d, %d records) is outside the data section", i, offset, recs)
		}
		fr.chunks = append(fr.chunks, v2Chunk{offset: offset, start: start, records: recs})
		start += recs
	}
	var buf [8]byte
	if _, err := io.ReadFull(fr.br, buf[:]); err != nil {
		return corruptf("reading trace total: %w", err)
	}
	fr.total = binary.LittleEndian.Uint64(buf[:])
	if fr.total != start {
		return corruptf("index total %d disagrees with chunk sum %d", fr.total, start)
	}
	return nil
}

// Len returns the total record count.
func (fr *FileReader) Len() uint64 { return fr.total }

// Version returns the trace format version (1 or 2).
func (fr *FileReader) Version() uint16 { return fr.version }

// Chunks returns the v2 chunk index as (offset, first record, record
// count) triples; nil for v1 traces. The slice is the reader's own.
func (fr *FileReader) Chunks() (offsets, starts, counts []uint64) {
	for _, c := range fr.chunks {
		offsets = append(offsets, c.offset)
		starts = append(starts, c.start)
		counts = append(counts, c.records)
	}
	return
}

// TraceID returns a stable content identifier for the trace — the
// SHA-256 of the file bytes, "sha256:"-prefixed. Interval checkpoints
// embed it in their warm-cache keys and snapshot metadata, so a
// checkpoint of one trace can never continue a run over different
// content. It reads the whole file once through the io.ReaderAt face
// (required for sections anyway), leaving the reader's cursor alone.
func (fr *FileReader) TraceID() (string, error) {
	ra, ok := fr.rs.(io.ReaderAt)
	if !ok {
		//fplint:ignore faulterr caller API misuse, not trace damage; ClassUnknown (no quarantine) is right
		return "", fmt.Errorf("memtrace: trace reader %T is not an io.ReaderAt; content hashing needs random access", fr.rs)
	}
	h := sha256.New()
	if _, err := io.Copy(h, io.NewSectionReader(ra, 0, fr.size)); err != nil {
		return "", fmt.Errorf("memtrace: hashing trace content: %w", err)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// Err returns the first decoding error, if any.
func (fr *FileReader) Err() error { return fr.err }

func (fr *FileReader) fail(err error) {
	if fr.err == nil {
		fr.err = err
	}
}

// seekTo positions the buffered reader at a file offset.
func (fr *FileReader) seekTo(offset uint64) error {
	if _, err := fr.rs.Seek(int64(offset), io.SeekStart); err != nil {
		return err
	}
	fr.br.Reset(fr.rs)
	return nil
}

// loadChunk seeks to chunk i and decodes its frame.
func (fr *FileReader) loadChunk(i int) error {
	c := fr.chunks[i]
	if err := fr.seekTo(c.offset); err != nil {
		return err
	}
	marker, err := fr.br.ReadByte()
	if err != nil {
		return corruptf("reading chunk %d marker: %w", i, err)
	}
	if marker != chunkMarker {
		return corruptf("chunk %d marker %#x, want %#x", i, marker, chunkMarker)
	}
	payload, recs, err := readChunkFrame(fr.br, fr.chunk.payload)
	if err != nil {
		return corruptf("chunk %d: %w", i, err)
	}
	if uint64(recs) != c.records {
		return corruptf("chunk %d holds %d records, index says %d", i, recs, c.records)
	}
	fr.cur = i
	fr.chunk.reset(payload, recs)
	return nil
}

// SeekRecord positions the reader so the next Next returns record i
// (i == Len() positions at end-of-trace). Seeking clears a previous
// decode error only if the seek itself succeeds.
func (fr *FileReader) SeekRecord(i uint64) error {
	if i > fr.total {
		return corruptf("seek to record %d beyond trace of %d", i, fr.total)
	}
	if fr.version == version1 {
		if err := fr.seekTo(8 + 22*i); err != nil {
			return err
		}
		fr.err = nil
		fr.next = i
		return nil
	}
	if i == fr.total {
		fr.cur = len(fr.chunks)
		fr.chunk.reset(fr.chunk.payload[:0], 0)
		fr.err = nil
		fr.next = i
		return nil
	}
	c := sort.Search(len(fr.chunks), func(k int) bool {
		return fr.chunks[k].start+fr.chunks[k].records > i
	})
	if err := fr.loadChunk(c); err != nil {
		return err
	}
	fr.err = nil
	for skip := i - fr.chunks[c].start; skip > 0; skip-- {
		if _, err := fr.chunk.next(); err != nil {
			fr.fail(err)
			return err
		}
	}
	fr.next = i
	return nil
}

// Verify is the trace fsck (tracegen -verify): it walks the whole
// file — every chunk frame for v2 (CRC, framing, full record decode,
// index agreement), every fixed-width record for v1 — and returns a
// typed corruption error (fault.ErrCorruptTrace) naming the first bad
// chunk and its file offset, or nil for a clean file. On success the
// reader is repositioned at record 0; after a corruption it is
// poisoned like any other decode failure.
func (fr *FileReader) Verify() error {
	if fr.version == version1 {
		if err := fr.SeekRecord(0); err != nil {
			return err
		}
		var n uint64
		for {
			if _, ok := fr.Next(); !ok {
				break
			}
			n++
		}
		if fr.err != nil {
			return fr.err
		}
		if n != fr.total {
			return corruptf("verify: v1 trace delivered %d of %d records", n, fr.total)
		}
		return fr.SeekRecord(0)
	}
	for i := range fr.chunks {
		c := fr.chunks[i]
		if err := fr.loadChunk(i); err != nil {
			fr.fail(err)
			return corruptf("verify: chunk %d at offset %d: %w", i, c.offset, err)
		}
		for fr.chunk.left > 0 {
			if _, err := fr.chunk.next(); err != nil {
				fr.fail(err)
				return corruptf("verify: chunk %d at offset %d: %w", i, c.offset, err)
			}
		}
		if fr.chunk.pos != len(fr.chunk.payload) {
			err := corruptf("verify: chunk %d at offset %d: %d trailing payload bytes",
				i, c.offset, len(fr.chunk.payload)-fr.chunk.pos)
			fr.fail(err)
			return err
		}
	}
	return fr.SeekRecord(0)
}

// SkipRecords discards up to n records by seeking, returning how many
// were skipped (fewer only at end-of-trace). A failed seek is the
// reader's error too (Err), so a caller that counts skipped records
// still learns why.
func (fr *FileReader) SkipRecords(n int) (int, error) {
	if n <= 0 || fr.err != nil {
		return 0, fr.err
	}
	k := uint64(n)
	if left := fr.limit - fr.next; k > left {
		k = left
	}
	if err := fr.SeekRecord(fr.next + k); err != nil {
		fr.fail(err)
		return 0, err
	}
	return int(k), nil
}

// Next implements Source.
func (fr *FileReader) Next() (Record, bool) {
	if fr.err != nil || fr.next >= fr.limit {
		return Record{}, false
	}
	if fr.version == version1 {
		var buf [22]byte
		if _, err := io.ReadFull(fr.br, buf[:]); err != nil {
			fr.fail(corruptf("reading record %d: %w", fr.next, err))
			return Record{}, false
		}
		fr.next++
		return decodeV1(buf), true
	}
	if fr.chunk.left == 0 {
		if fr.cur+1 >= len(fr.chunks) {
			fr.fail(corruptf("chunk index exhausted at record %d of %d", fr.next, fr.total))
			return Record{}, false
		}
		if err := fr.loadChunk(fr.cur + 1); err != nil {
			fr.fail(err)
			return Record{}, false
		}
	}
	rec, err := fr.chunk.next()
	if err != nil {
		fr.fail(err)
		return Record{}, false
	}
	fr.next++
	return rec, true
}
