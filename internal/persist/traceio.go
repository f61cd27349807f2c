// The trace store's binary format (version 1).
//
// A trace file is a header followed by a sequence of entry blocks:
//
//	header (80 bytes):
//	  [0:8)    magic "RESTTRC\n"
//	  [8:12)   format version, uint32 LE
//	  [12:16)  flags, uint32 LE (bit 0: blocks are flate-compressed)
//	  [16:24)  token width, uint64 LE (0 = no REST token shadow)
//	  [24:32)  entry count, uint64 LE
//	  [32:40)  outcome checksum, uint64 LE (the captured run's Checksum)
//	  [40:72)  functional identity digest (the file's own content address)
//	  [72:76)  reserved, zero
//	  [76:80)  CRC-32 (IEEE) of bytes [0:76)
//	block (12-byte header + payload), repeated until entry count is reached:
//	  [0:4)    entries in this block, uint32 LE (1..16384)
//	  [4:8)    payload length, uint32 LE
//	  [8:12)   CRC-32 (IEEE) of the payload bytes as stored
//	  [12:..)  payload: entries packed 31 bytes each
//	           (pc,addr,target u64 LE; op,kind,dst,src1,src2,size,flags u8;
//	           flags bit0 = branch taken, bit1 = faults),
//	           flate-compressed when the header flag says so
//
// All multi-byte integers are little-endian. The payload CRC is computed
// over the stored (possibly compressed) bytes and checked before inflation,
// so a bit flip anywhere in a block is caught without trusting the flate
// stream; the header CRC covers every field that governs parsing. Decoding
// never panics on arbitrary input — every malformed shape maps to a typed
// error (FuzzTraceDecode pins that) — and appends into a trace.Recorder
// exactly as a live capture does, so a loaded trace replays like a captured
// one. Encoding streams: TraceWriter packs and compresses each block as soon
// as it fills, so a capture bound only for the store never holds its whole
// trace in memory.
package persist

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"rest/internal/isa"
	"rest/internal/trace"
)

const (
	traceExt   = ".trc"
	traceMagic = "RESTTRC\n"

	traceHeaderLen   = 80
	blockHeaderLen   = 12
	diskBlockEntries = 16384 // entries per block: 16384 × 31 B ≈ 496 KiB raw
	packedEntryLen   = 31

	flagCompressed = 1 << 0

	packedFlagTaken  = 1 << 0
	packedFlagFaults = 1 << 1
)

// maxPayloadLen bounds a block's stored payload. Flate output can exceed its
// input on incompressible data only marginally; double the raw size is far
// past any legitimate block and small enough to keep a hostile length field
// from ballooning reads.
const maxPayloadLen = 2 * diskBlockEntries * packedEntryLen

// blockBufPool recycles the per-block scratch buffers (raw and stored forms)
// so streaming a trace in or out allocates per block at most, never per
// entry, and usually not at all after warm-up.
var blockBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, maxPayloadLen)
		return &b
	},
}

// flateWriterPool recycles compressors across blocks and files.
var flateWriterPool = sync.Pool{
	New: func() any {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	},
}

// flateReaderPool recycles decompressors; flate.NewReader's concrete type
// implements flate.Resetter.
var flateReaderPool = sync.Pool{
	New: func() any { return flate.NewReader(bytes.NewReader(nil)) },
}

// StoreTrace writes a captured recording into the trace store under its
// functional identity digest, atomically, and admits it to the manifest,
// evicting older entries if the byte cap demands. checksum is the captured
// run's outcome checksum, replayed verbatim. It reads the recording once,
// in order, through a Replayer, and encodes through the same TraceWriter a
// streamed capture uses.
func (c *Cache) StoreTrace(id ID, rec *trace.Recorder, checksum uint64) error {
	if rec.Overflowed() {
		return errors.New("persist: refusing to store an overflowed (partial) trace")
	}
	w := c.NewTraceWriter(id, rec.TokenWidth(), 0)
	rp := rec.Replayer()
	var buf [256]trace.Entry
	for n := rp.ReadBatch(buf[:]); n > 0; n = rp.ReadBatch(buf[:]) {
		for i := range buf[:n] {
			w.Append(buf[i])
		}
	}
	return w.Commit(checksum)
}

// LoadTrace reads the trace stored under id into a fresh Recorder, returning
// it with the captured outcome checksum. A missing file is ErrMiss; a
// damaged one is *CorruptError (and is deleted in read-write mode); a file
// from another format generation is *VersionError (deleted likewise — it can
// never be read again); a backend that could not answer is *UnavailableError
// or ErrBreakerOpen. Every one of them means "recompute" to the caller.
func (c *Cache) LoadTrace(id ID) (*trace.Recorder, uint64, error) {
	path := c.path(kindTrace, id)
	raw, err := c.b.Get(kindTrace, id.String())
	if err != nil {
		c.unavailableSeen(err)
		c.mu.Lock()
		c.c.TraceMisses++
		c.mu.Unlock()
		if errors.Is(err, ErrNotFound) {
			return nil, 0, ErrMiss
		}
		return nil, 0, err
	}
	rec, checksum, derr := decodeTrace(bytes.NewReader(raw), &id)
	if derr != nil {
		var verr *VersionError
		if errors.As(derr, &verr) {
			verr.Path = path
		}
		var cerr *CorruptError
		if errors.As(derr, &cerr) {
			cerr.Path = path
		}
		c.discard(kindTrace, id)
		c.mu.Lock()
		c.c.TraceMisses++
		c.mu.Unlock()
		return nil, 0, derr
	}
	c.touch(kindTrace, id)
	c.mu.Lock()
	c.c.TraceHits++
	c.mu.Unlock()
	return rec, checksum, nil
}

// errTraceLimit is Commit's answer for a trace that outgrew the writer's
// entry limit.
var errTraceLimit = errors.New("persist: trace exceeds the per-trace limit; not stored")

// errWriterClosed is Commit's answer once the writer has committed or
// aborted.
var errWriterClosed = errors.New("persist: trace writer already committed or aborted")

// TraceWriter is the version-1 trace encoder. It encodes a trace as it
// streams past, so a capture bound only for the store never holds the trace
// itself: each block is packed and compressed as soon as it fills, and the
// writer keeps only the block being packed plus the encoded blocks so far.
// It implements trace.Sink, so a capture tees straight into it. Append the
// entries in stream order, then Commit to store the trace or Abort to drop
// it. Both return the writer's pooled buffers, and Abort after Commit does
// nothing, so a deferred Abort covers every exit. Not safe for concurrent
// use.
type TraceWriter struct {
	c          *Cache
	id         ID
	tokenWidth uint64
	limit      int // most entries the trace may hold (0 = unlimited)
	n          int // entries appended
	fill       int // entries packed into the current block

	raw  *[]byte       // pooled: the current block, packed
	body *bytes.Buffer // pooled: the encoded blocks so far
	fw   *flate.Writer // pooled; nil when blocks are stored raw

	err error // sticky: why Commit will store nothing
}

// bodyBufPool recycles the writers' encoded-block accumulators, so a warm
// writer allocates little beyond the exact-size file it hands the backend.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// NewTraceWriter starts a trace for the store under id, recorded with the
// capture's token width (0 for traces from non-REST worlds). A trace longer
// than maxEntries (0 = unlimited) overflows: the writer drops what it has
// encoded, ignores later entries, and Commit stores nothing. That is the
// rule a trace.Recorder's entry limit applies, so a streamed capture is stored
// exactly when a recorded one would be. On a read-only cache the writer
// encodes nothing and Commit returns ErrReadOnly.
func (c *Cache) NewTraceWriter(id ID, tokenWidth uint64, maxEntries int) *TraceWriter {
	w := &TraceWriter{c: c, id: id, tokenWidth: tokenWidth, limit: maxEntries}
	if c.opt.ReadOnly {
		w.err = ErrReadOnly
		return w
	}
	w.raw = blockBufPool.Get().(*[]byte)
	w.body = bodyBufPool.Get().(*bytes.Buffer)
	if !c.opt.NoCompress {
		w.fw = flateWriterPool.Get().(*flate.Writer)
	}
	return w
}

// TokenWidth implements trace.Sink.
func (w *TraceWriter) TokenWidth() uint64 { return w.tokenWidth }

// Append encodes the next entry of the trace. It implements trace.Sink.
func (w *TraceWriter) Append(e trace.Entry) {
	if w.err != nil {
		return
	}
	if w.limit != 0 && w.n >= w.limit {
		w.close(errTraceLimit)
		return
	}
	packEntry((*w.raw)[w.fill*packedEntryLen:(w.fill+1)*packedEntryLen], e)
	w.fill++
	w.n++
	if w.fill == diskBlockEntries {
		w.flushBlock()
	}
}

// flushBlock appends the packed entries of the current block to the body as
// one encoded block: its header, then the payload, compressed unless the
// cache stores blocks raw.
func (w *TraceWriter) flushBlock() {
	start := w.body.Len()
	var bh [blockHeaderLen]byte
	w.body.Write(bh[:]) // filled in once the stored payload is known
	payload := (*w.raw)[:w.fill*packedEntryLen]
	if w.fw == nil {
		w.body.Write(payload)
	} else {
		w.fw.Reset(w.body)
		_, err := w.fw.Write(payload)
		if err == nil {
			err = w.fw.Close()
		}
		if err != nil {
			w.close(fmt.Errorf("persist: compress trace block: %w", err))
			return
		}
	}
	blk := w.body.Bytes()[start:]
	stored := blk[blockHeaderLen:]
	binary.LittleEndian.PutUint32(blk[0:4], uint32(w.fill))
	binary.LittleEndian.PutUint32(blk[4:8], uint32(len(stored)))
	binary.LittleEndian.PutUint32(blk[8:12], crc32.ChecksumIEEE(stored))
	w.fill = 0
}

// Commit finishes the trace and stores it under the writer's id, atomically,
// admitting it to the manifest and evicting older entries if the byte cap
// demands. checksum is the captured run's outcome checksum, replayed
// verbatim. It stores nothing, and says why, when the cache is read-only,
// the trace overflowed its limit, or the writer already committed or
// aborted.
func (w *TraceWriter) Commit(checksum uint64) error {
	if w.err == nil && w.fill > 0 {
		w.flushBlock()
	}
	if w.err != nil {
		err := w.err
		w.close(errWriterClosed)
		return err
	}
	// The file goes to the backend in a fresh buffer, never the pooled body:
	// a timed-out Put may still be reading it after Commit returns.
	data := make([]byte, traceHeaderLen+w.body.Len())
	hdr := data[:traceHeaderLen]
	copy(hdr[0:8], traceMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], FormatVersion)
	var flags uint32
	if w.fw != nil {
		flags |= flagCompressed
	}
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint64(hdr[16:24], w.tokenWidth)
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(w.n))
	binary.LittleEndian.PutUint64(hdr[32:40], checksum)
	copy(hdr[40:72], w.id[:])
	binary.LittleEndian.PutUint32(hdr[76:80], crc32.ChecksumIEEE(hdr[:76]))
	copy(data[traceHeaderLen:], w.body.Bytes())
	w.close(errWriterClosed)

	c := w.c
	if err := c.b.Put(kindTrace, w.id.String(), data); err != nil {
		c.unavailableSeen(err)
		return err
	}
	return c.admit(kindTrace, w.id, int64(len(data)))
}

// Abort drops the trace without storing anything and returns the writer's
// pooled buffers. It does nothing after Commit or a previous Abort.
func (w *TraceWriter) Abort() { w.close(errWriterClosed) }

// close records why the writer can store nothing more (the first reason
// sticks) and returns its pooled buffers.
func (w *TraceWriter) close(reason error) {
	if w.err == nil {
		w.err = reason
	}
	if w.raw != nil {
		blockBufPool.Put(w.raw)
		w.raw = nil
	}
	if w.body != nil {
		w.body.Reset()
		bodyBufPool.Put(w.body)
		w.body = nil
	}
	if w.fw != nil {
		flateWriterPool.Put(w.fw)
		w.fw = nil
	}
}

// corrupt builds a *CorruptError with the path left for the caller to fill.
func corrupt(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// decodeTrace reads the version-1 trace format into a fresh Recorder. wantID
// non-nil additionally binds the file to its content address (a renamed or
// cross-copied file is corruption, not a silently wrong replay). On any
// error it returns a nil Recorder. It reads arbitrary untrusted bytes without
// panicking; FuzzTraceDecode enforces that.
func decodeTrace(r io.Reader, wantID *ID) (*trace.Recorder, uint64, error) {
	var hdr [traceHeaderLen]byte
	if _, rerr := io.ReadFull(r, hdr[:]); rerr != nil {
		return nil, 0, corrupt("short header: %v", rerr)
	}
	if string(hdr[0:8]) != traceMagic {
		return nil, 0, corrupt("bad magic %q", hdr[0:8])
	}
	if got := binary.LittleEndian.Uint32(hdr[76:80]); got != crc32.ChecksumIEEE(hdr[:76]) {
		return nil, 0, corrupt("header CRC mismatch")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != FormatVersion {
		return nil, 0, &VersionError{Got: v}
	}
	flags := binary.LittleEndian.Uint32(hdr[12:16])
	if flags&^uint32(flagCompressed) != 0 {
		return nil, 0, corrupt("unknown flags %#x", flags)
	}
	tokenWidth := binary.LittleEndian.Uint64(hdr[16:24])
	count := binary.LittleEndian.Uint64(hdr[24:32])
	checksum := binary.LittleEndian.Uint64(hdr[32:40])
	if wantID != nil && !bytes.Equal(hdr[40:72], wantID[:]) {
		return nil, 0, corrupt("identity digest does not match the file's address")
	}

	rawp := blockBufPool.Get().(*[]byte)
	defer blockBufPool.Put(rawp)
	storedp := blockBufPool.Get().(*[]byte)
	defer blockBufPool.Put(storedp)

	out := trace.NewRecorder(tokenWidth, 0)
	var got uint64
	for got < count {
		var bh [blockHeaderLen]byte
		if _, rerr := io.ReadFull(r, bh[:]); rerr != nil {
			return nil, 0, corrupt("short block header at entry %d: %v", got, rerr)
		}
		n := binary.LittleEndian.Uint32(bh[0:4])
		plen := binary.LittleEndian.Uint32(bh[4:8])
		wantCRC := binary.LittleEndian.Uint32(bh[8:12])
		if n == 0 || n > diskBlockEntries || uint64(n) > count-got {
			return nil, 0, corrupt("block entry count %d out of range", n)
		}
		if plen == 0 || plen > maxPayloadLen {
			return nil, 0, corrupt("block payload length %d out of range", plen)
		}
		stored := (*storedp)[:plen]
		if _, rerr := io.ReadFull(r, stored); rerr != nil {
			return nil, 0, corrupt("short block payload at entry %d: %v", got, rerr)
		}
		if crc32.ChecksumIEEE(stored) != wantCRC {
			return nil, 0, corrupt("block CRC mismatch at entry %d", got)
		}
		payload := stored
		rawLen := int(n) * packedEntryLen
		if flags&flagCompressed != 0 {
			fr := flateReaderPool.Get().(io.ReadCloser)
			fr.(flate.Resetter).Reset(bytes.NewReader(stored), nil)
			buf := (*rawp)[:rawLen]
			_, ierr := io.ReadFull(fr, buf)
			var extra [1]byte
			if ierr == nil {
				if _, eerr := fr.Read(extra[:]); eerr != io.EOF {
					ierr = errors.New("trailing bytes in compressed block")
				}
			}
			flateReaderPool.Put(fr)
			if ierr != nil {
				return nil, 0, corrupt("block inflate at entry %d: %v", got, ierr)
			}
			payload = buf
		} else if int(plen) != rawLen {
			return nil, 0, corrupt("raw block length %d != %d entries", plen, n)
		}
		for i := 0; i < int(n); i++ {
			out.Append(unpackEntry(payload[i*packedEntryLen : (i+1)*packedEntryLen]))
		}
		got += uint64(n)
	}
	var extra [1]byte
	if _, rerr := r.Read(extra[:]); rerr != io.EOF {
		return nil, 0, corrupt("trailing bytes after final block")
	}
	return out, checksum, nil
}

// packEntry stores one trace entry in its 31-byte packed form (Seq is
// implied by position, exactly as in the in-memory Recorder).
func packEntry(b []byte, e trace.Entry) {
	binary.LittleEndian.PutUint64(b[0:8], e.PC)
	binary.LittleEndian.PutUint64(b[8:16], e.Addr)
	binary.LittleEndian.PutUint64(b[16:24], e.Target)
	b[24] = uint8(e.Op)
	b[25] = uint8(e.Kind)
	b[26] = e.Dst
	b[27] = e.Src1
	b[28] = e.Src2
	b[29] = e.Size
	var fl uint8
	if e.Taken {
		fl |= packedFlagTaken
	}
	if e.Faults {
		fl |= packedFlagFaults
	}
	b[30] = fl
}

// unpackEntry is packEntry's inverse. Seq is assigned by the Recorder's
// Append position, matching the capture-time convention.
func unpackEntry(b []byte) trace.Entry {
	return trace.Entry{
		PC:     binary.LittleEndian.Uint64(b[0:8]),
		Addr:   binary.LittleEndian.Uint64(b[8:16]),
		Target: binary.LittleEndian.Uint64(b[16:24]),
		Op:     isa.Op(b[24]),
		Kind:   trace.Kind(b[25]),
		Dst:    b[26],
		Src1:   b[27],
		Src2:   b[28],
		Size:   b[29],
		Taken:  b[30]&packedFlagTaken != 0,
		Faults: b[30]&packedFlagFaults != 0,
	}
}
