// The result store's binary format (version 1).
//
// A result file memoizes one sweep cell's timing outcome — the cpu.Stats a
// replay (or stream) of that exact (functional identity × timing config)
// pair produces, plus the run's outcome checksum — so a warm sweep skips
// even the replay:
//
//	[0:8)    magic "RESTRES\n"
//	[8:12)   format version, uint32 LE
//	[12:44)  full identity digest (the file's own content address)
//	[44:..)  the stats fields, fixed width, in the order of resultFields
//	         (uint64 LE each; IPC stored as its IEEE-754 bit pattern so the
//	         round trip is bit-exact), then LSQViolation as one byte and the
//	         outcome checksum as uint64 LE
//	[-4:)    CRC-32 (IEEE) of everything before it
//
// Only fully clean cells are stored (no error, no detection), so the
// Exception pointer inside cpu.Stats is nil by construction; StoreResult
// refuses anything else rather than silently dropping it. If cpu.Stats ever
// grows a field, TestResultCodecCoversStats fails until the codec learns it
// and FormatVersion is bumped — the version gate is what keeps stale files
// from being misread as current ones.
package persist

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"

	"rest/internal/cpu"
)

const resultMagic = "RESTRES\n"

// CellResult is the memoized outcome of one clean sweep cell.
type CellResult struct {
	Stats    cpu.Stats
	Checksum uint64 // the run's world.Outcome.Checksum
}

// resultNumFields is the number of uint64 slots the codec packs from
// cpu.Stats; see packStats for the order.
const resultNumFields = 13

const resultFileLen = 8 + 4 + 32 + resultNumFields*8 + 1 + 8 + 4

// packStats lays out the numeric stats fields in their fixed codec order.
func packStats(b []byte, s *cpu.Stats) {
	fields := [resultNumFields]uint64{
		s.Cycles, s.Instructions, s.UserInstrs, s.RuntimeOps,
		math.Float64bits(s.IPC),
		s.Mispredicts, s.BranchLookups, s.LSQForwardings,
		s.ROBFullCycles, s.IQFullCycles, s.LQFullCycles, s.SQFullCycles,
		s.ROBStoreBlockCycles,
	}
	for i, v := range fields {
		binary.LittleEndian.PutUint64(b[i*8:(i+1)*8], v)
	}
}

// unpackStats is packStats's inverse.
func unpackStats(b []byte) cpu.Stats {
	var f [resultNumFields]uint64
	for i := range f {
		f[i] = binary.LittleEndian.Uint64(b[i*8 : (i+1)*8])
	}
	return cpu.Stats{
		Cycles: f[0], Instructions: f[1], UserInstrs: f[2], RuntimeOps: f[3],
		IPC:         math.Float64frombits(f[4]),
		Mispredicts: f[5], BranchLookups: f[6], LSQForwardings: f[7],
		ROBFullCycles: f[8], IQFullCycles: f[9], LQFullCycles: f[10], SQFullCycles: f[11],
		ROBStoreBlockCycles: f[12],
	}
}

// StoreResult memoizes one clean cell outcome under its full identity
// digest, atomically.
func (c *Cache) StoreResult(id ID, r *CellResult) error {
	if c.readOnly {
		return ErrReadOnly
	}
	if r.Stats.Exception != nil || r.Stats.LSQViolation {
		return errors.New("persist: refusing to store a detected (non-clean) cell result")
	}
	buf := make([]byte, resultFileLen)
	copy(buf[0:8], resultMagic)
	binary.LittleEndian.PutUint32(buf[8:12], FormatVersion)
	copy(buf[12:44], id[:])
	packStats(buf[44:], &r.Stats)
	off := 44 + resultNumFields*8
	buf[off] = 0 // LSQViolation, always false for a clean cell
	binary.LittleEndian.PutUint64(buf[off+1:off+9], r.Checksum)
	binary.LittleEndian.PutUint32(buf[off+9:off+13], crc32.ChecksumIEEE(buf[:off+9]))
	return c.put(resultKind, id, buf)
}

// LoadResult reads the memoized outcome stored under id. Misses return
// ErrMiss; damaged files return *CorruptError (deleted in read-write mode);
// files of another format generation return *VersionError; a file that
// could not be read returns the I/O error. Every one of them means
// "recompute" to the caller.
func (c *Cache) LoadResult(id ID) (*CellResult, error) {
	var r *CellResult
	err := c.load(c.path(resultKind, id), func(raw []byte) (err error) {
		r, err = decodeResult(raw, &id)
		return err
	}, &c.c.ResultHits, &c.c.ResultMisses)
	return r, err
}

// decodeResult parses and validates one result file.
func decodeResult(raw []byte, wantID *ID) (*CellResult, error) {
	if len(raw) < 12 {
		return nil, corrupt("short result file (%d bytes)", len(raw))
	}
	if string(raw[0:8]) != resultMagic {
		return nil, corrupt("bad magic %q", raw[0:8])
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != FormatVersion {
		return nil, &VersionError{Got: v}
	}
	if len(raw) != resultFileLen {
		return nil, corrupt("result file is %d bytes, want %d", len(raw), resultFileLen)
	}
	if got := binary.LittleEndian.Uint32(raw[resultFileLen-4:]); got != crc32.ChecksumIEEE(raw[:resultFileLen-4]) {
		return nil, corrupt("CRC mismatch")
	}
	if wantID != nil {
		var id ID
		copy(id[:], raw[12:44])
		if id != *wantID {
			return nil, corrupt("identity digest does not match the file's address")
		}
	}
	off := 44 + resultNumFields*8
	if raw[off] != 0 {
		return nil, corrupt("stored result claims a detection; only clean cells are cacheable")
	}
	return &CellResult{
		Stats:    unpackStats(raw[44:off]),
		Checksum: binary.LittleEndian.Uint64(raw[off+1 : off+9]),
	}, nil
}
