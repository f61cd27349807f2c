// The trace store's binary format (version 3).
//
// Sweeps do not store traces: replaying one from disk costs more than
// re-executing its cell on the block engine, so the harness persists
// results only. The codec stays for the benchmark module (bench/restperf),
// which times StoreTrace and LoadTrace as the persist layer's trace
// throughput.
//
// A trace file is an 80-byte header followed by the trace's serialized form,
// which is the trace package's to define (trace.Recorder.AppendEncoding):
// the site table, then each block of 16384 entries with its byte length, in
// the same bytes a Recorder holds in memory.
//
//	header (80 bytes):
//	  [0:8)    magic "RESTTRC\n"
//	  [8:12)   format version, uint32 LE
//	  [12:16)  flags, uint32 LE, zero (none is defined)
//	  [16:24)  token width, uint64 LE (0 = no REST token shadow)
//	  [24:32)  entry count, uint64 LE
//	  [32:40)  outcome checksum, uint64 LE (the captured run's Checksum)
//	  [40:72)  functional identity digest (the file's own content address)
//	  [72:76)  CRC-32 (IEEE) of the payload, bytes [80:)
//	  [76:80)  CRC-32 (IEEE) of bytes [0:76)
//	payload:
//	  [80:)    the trace's serialized form
//
// All multi-byte header integers are little-endian. The header CRC sits
// where it did in version 1, so a file of any generation is recognised as
// such before anything generation-specific is read. Decoding checks both
// CRCs before it interprets a payload byte, then hands the payload to
// trace.DecodeRecorder, which validates it entry by entry. It never panics
// on arbitrary input: every malformed shape maps to a typed error
// (FuzzTraceDecode pins that), and a loaded trace replays like a captured
// one.
package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"rest/internal/trace"
)

const (
	traceMagic     = "RESTTRC\n"
	traceHeaderLen = 80
)

// StoreTrace writes a captured recording into the trace store under id,
// atomically. checksum is the captured run's outcome checksum, replayed
// verbatim. The file is built in one buffer sized to it: the header, then
// the Recorder's own serialized form.
func (c *Cache) StoreTrace(id ID, rec *trace.Recorder, checksum uint64) error {
	if c.readOnly {
		return ErrReadOnly
	}
	if rec.Overflowed() {
		return errors.New("persist: refusing to store an overflowed (partial) trace")
	}
	data := rec.AppendEncoding(make([]byte, traceHeaderLen))
	hdr := data[:traceHeaderLen]
	copy(hdr[0:8], traceMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[16:24], rec.TokenWidth())
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(rec.Len()))
	binary.LittleEndian.PutUint64(hdr[32:40], checksum)
	copy(hdr[40:72], id[:])
	binary.LittleEndian.PutUint32(hdr[72:76], crc32.ChecksumIEEE(data[traceHeaderLen:]))
	binary.LittleEndian.PutUint32(hdr[76:80], crc32.ChecksumIEEE(hdr[:76]))
	return c.put(traceKind, id, data)
}

// LoadTrace reads the trace stored under id into a fresh Recorder, returning
// it with the captured outcome checksum. A missing file is ErrMiss; a
// damaged one is *CorruptError (and is deleted in read-write mode); a file
// from another format generation is *VersionError (deleted likewise — it can
// never be read again); a file that could not be read returns the I/O
// error. Every one of them means "recompute" to the caller.
func (c *Cache) LoadTrace(id ID) (*trace.Recorder, uint64, error) {
	var rec *trace.Recorder
	var checksum uint64
	var raw []byte
	err := c.load(c.path(traceKind, id), &raw, func() (err error) {
		rec, checksum, err = decodeTrace(raw, &id)
		return err
	}, &c.c.TraceHits, &c.c.TraceMisses)
	return rec, checksum, err
}

// corrupt builds a *CorruptError with the path left for the caller to fill.
func corrupt(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// decodeTrace reads a version-3 trace file into a fresh Recorder. wantID
// non-nil additionally binds the file to its content address (a renamed or
// cross-copied file is corruption, not a silently wrong replay). On any
// error it returns a nil Recorder. It reads arbitrary untrusted bytes without
// panicking; FuzzTraceDecode enforces that.
func decodeTrace(raw []byte, wantID *ID) (*trace.Recorder, uint64, error) {
	if len(raw) < traceHeaderLen {
		return nil, 0, corrupt("short header: %d bytes", len(raw))
	}
	hdr := raw[:traceHeaderLen]
	if string(hdr[0:8]) != traceMagic {
		return nil, 0, corrupt("bad magic %q", hdr[0:8])
	}
	if got := binary.LittleEndian.Uint32(hdr[76:80]); got != crc32.ChecksumIEEE(hdr[:76]) {
		return nil, 0, corrupt("header CRC mismatch")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != FormatVersion {
		return nil, 0, &VersionError{Got: v}
	}
	if flags := binary.LittleEndian.Uint32(hdr[12:16]); flags != 0 {
		return nil, 0, corrupt("unknown flags %#x", flags)
	}
	if wantID != nil && !bytes.Equal(hdr[40:72], wantID[:]) {
		return nil, 0, corrupt("identity digest does not match the file's address")
	}
	payload := raw[traceHeaderLen:]
	if binary.LittleEndian.Uint32(hdr[72:76]) != crc32.ChecksumIEEE(payload) {
		return nil, 0, corrupt("payload CRC mismatch")
	}
	tokenWidth := binary.LittleEndian.Uint64(hdr[16:24])
	count := binary.LittleEndian.Uint64(hdr[24:32])
	rec, err := trace.DecodeRecorder(tokenWidth, count, payload)
	if err != nil {
		return nil, 0, corrupt("%v", err)
	}
	return rec, binary.LittleEndian.Uint64(hdr[32:40]), nil
}
