package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"rest/internal/trace"
)

// storedBytes stores rec in a temporary cache directory and returns the file
// StoreTrace wrote.
func storedBytes(rec *trace.Recorder, id ID, checksum uint64) ([]byte, error) {
	dir, err := os.MkdirTemp("", "persist-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c, err := Open(dir, Options{})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.StoreTrace(id, rec, checksum); err != nil {
		return nil, err
	}
	return os.ReadFile(c.path(traceKind, id))
}

// traceFile assembles a trace file straight from the version-3 layout in
// traceio.go's header comment: the header field by field, with both CRCs,
// then payload as given.
func traceFile(tokenWidth, entries, checksum uint64, id ID, payload []byte) []byte {
	data := make([]byte, traceHeaderLen, traceHeaderLen+len(payload))
	copy(data[0:8], traceMagic)
	binary.LittleEndian.PutUint32(data[8:12], FormatVersion)
	binary.LittleEndian.PutUint64(data[16:24], tokenWidth)
	binary.LittleEndian.PutUint64(data[24:32], entries)
	binary.LittleEndian.PutUint64(data[32:40], checksum)
	copy(data[40:72], id[:])
	binary.LittleEndian.PutUint32(data[72:76], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(data[76:80], crc32.ChecksumIEEE(data[:76]))
	return append(data, payload...)
}

// TestTraceWriterMatchesReference pins the file StoreTrace writes to the
// reference layout byte for byte, with and without a token width, at every
// length around the block edges, for traces the encoding compresses
// (compress=true, a few bytes per block) and traces it cannot
// (compress=false, a 14-byte site-table row per entry). The trace loads
// back with its checksum, and storing the loaded Recorder writes the same
// file again: decoding rebuilds the encoding the capture wrote.
func TestTraceWriterMatchesReference(t *testing.T) {
	lengths := []int{0, 1, traceBlockEntries - 1, traceBlockEntries, traceBlockEntries + 1, 3*traceBlockEntries + 7}
	for _, compress := range []bool{true, false} {
		for _, tokenWidth := range []uint64{0, 64} {
			for _, n := range lengths {
				name := fmt.Sprintf("compress=%t/tw=%d/n=%d", compress, tokenWidth, n)
				t.Run(name, func(t *testing.T) {
					rec := shapedTrace(compress, n, tokenWidth)
					defer rec.Release()
					payload := rec.AppendEncoding(nil)
					if compress && len(payload) > 128*(n/traceBlockEntries+1) || !compress && len(payload) < 14*n {
						t.Fatalf("compress=%t: %d entries serialize to %d bytes", compress, n, len(payload))
					}
					id := SumID("writer/" + name)
					want := traceFile(tokenWidth, uint64(n), 0xc0ffee, id, payload)

					c, err := Open(t.TempDir(), Options{})
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					if err := c.StoreTrace(id, rec, 0xc0ffee); err != nil {
						t.Fatal(err)
					}
					stored, err := os.ReadFile(c.path(traceKind, id))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(stored, want) {
						t.Fatalf("StoreTrace bytes differ from the reference (%d vs %d bytes)", len(stored), len(want))
					}
					back, checksum, err := c.LoadTrace(id)
					if err != nil {
						t.Fatal(err)
					}
					defer back.Release()
					if checksum != 0xc0ffee {
						t.Fatalf("checksum %#x", checksum)
					}
					assertTraceEqual(t, rec, back)
					again, err := storedBytes(back, id, checksum)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(again, want) {
						t.Fatalf("the loaded trace stores as different bytes (%d vs %d bytes)", len(again), len(want))
					}
				})
			}
		}
	}
}

// TestTraceStoreAllocationBound is a deterministic memory gate on the store
// path: with the GC off, storing a trace may allocate at most its file size
// plus 64 KiB. StoreTrace builds the file in one buffer; the slack covers
// the file write. The trace is one the encoding cannot compress, so its
// file (~400 KB) dwarfs the slack. The bound is in bytes allocated per
// store, not time, so host noise cannot move it.
func TestTraceStoreAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("stores a 20k-entry trace of 20k sites")
	}
	const entries = 20_000
	rec := testTrace(entries, 0)
	defer rec.Release()
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t.Run("StoreTrace", func(t *testing.T) {
		id := SumID("gate")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.StoreTrace(id, rec, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		file := c.Counters().Bytes // the handle's only store
		alloc := after.TotalAlloc - before.TotalAlloc
		bound := file + 64<<10
		t.Logf("%d entries: file %d B (%.2f B/entry), allocated %d B (%.3fx the file), bound %d B",
			entries, file, float64(file)/entries, alloc, float64(alloc)/float64(file), bound)
		if alloc > bound {
			t.Fatalf("storing allocated %d B, more than the %d B file plus 64 KiB", alloc, file)
		}
	})
}
