package persist

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"runtime/debug"
	"testing"

	"rest/internal/isa"
	"rest/internal/trace"
)

// writerBytes streams rec through a TraceWriter into an in-memory store and
// returns the file it committed.
func writerBytes(rec *trace.Recorder, id ID, checksum uint64, compress bool) ([]byte, error) {
	mb := NewMemBackend()
	c, err := OpenBackend(mb, Options{NoCompress: !compress})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	w := c.NewTraceWriter(id, rec.TokenWidth(), 0)
	for i := 0; i < rec.Len(); i++ {
		w.Append(rec.At(i))
	}
	if err := w.Commit(checksum); err != nil {
		return nil, err
	}
	return mb.Get(kindTrace, id.String())
}

// referenceEncode encodes a whole recorded trace in one pass, written
// straight from the version-1 layout in traceio.go's header comment: every
// block packed, compressed on its own with a fresh BestSpeed compressor and
// framed by its header. TraceWriter must reproduce its bytes exactly.
func referenceEncode(rec *trace.Recorder, id ID, checksum uint64, compress bool) []byte {
	var out bytes.Buffer
	var hdr [traceHeaderLen]byte
	copy(hdr[0:8], traceMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], FormatVersion)
	if compress {
		binary.LittleEndian.PutUint32(hdr[12:16], flagCompressed)
	}
	binary.LittleEndian.PutUint64(hdr[16:24], rec.TokenWidth())
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(rec.Len()))
	binary.LittleEndian.PutUint64(hdr[32:40], checksum)
	copy(hdr[40:72], id[:])
	binary.LittleEndian.PutUint32(hdr[76:80], crc32.ChecksumIEEE(hdr[:76]))
	out.Write(hdr[:])
	for base := 0; base < rec.Len(); base += diskBlockEntries {
		n := min(rec.Len()-base, diskBlockEntries)
		payload := make([]byte, n*packedEntryLen)
		for i := 0; i < n; i++ {
			packEntry(payload[i*packedEntryLen:], rec.At(base+i))
		}
		if compress {
			var z bytes.Buffer
			fw, err := flate.NewWriter(&z, flate.BestSpeed)
			if err != nil {
				panic(err)
			}
			fw.Write(payload)
			fw.Close()
			payload = z.Bytes()
		}
		var bh [blockHeaderLen]byte
		binary.LittleEndian.PutUint32(bh[0:4], uint32(n))
		binary.LittleEndian.PutUint32(bh[4:8], uint32(len(payload)))
		binary.LittleEndian.PutUint32(bh[8:12], crc32.ChecksumIEEE(payload))
		out.Write(bh[:])
		out.Write(payload)
	}
	return out.Bytes()
}

// TestTraceWriterMatchesReference pins the streaming encoder to the
// one-pass reference byte for byte, in both block encodings, with and
// without a token width, at every length around the block edges. StoreTrace
// (the recorder path) must commit the same file as a streamed capture.
func TestTraceWriterMatchesReference(t *testing.T) {
	lengths := []int{0, 1, diskBlockEntries - 1, diskBlockEntries, diskBlockEntries + 1, 3*diskBlockEntries + 7}
	for _, compress := range []bool{true, false} {
		for _, tokenWidth := range []uint64{0, 64} {
			for _, n := range lengths {
				name := fmt.Sprintf("compress=%t/tw=%d/n=%d", compress, tokenWidth, n)
				t.Run(name, func(t *testing.T) {
					rec := testTrace(n, tokenWidth)
					defer rec.Release()
					id := SumID("writer/" + name)
					want := referenceEncode(rec, id, 0xc0ffee, compress)
					got, err := writerBytes(rec, id, 0xc0ffee, compress)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("writer bytes differ from the reference (%d vs %d bytes)", len(got), len(want))
					}

					mb := NewMemBackend()
					c, err := OpenBackend(mb, Options{NoCompress: !compress})
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					if err := c.StoreTrace(id, rec, 0xc0ffee); err != nil {
						t.Fatal(err)
					}
					stored, err := mb.Get(kindTrace, id.String())
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
				})
			}
		}
	}
}

// assertWriterReleased checks that a finished writer handed every pooled
// buffer back.
func assertWriterReleased(t *testing.T, w *TraceWriter) {
	t.Helper()
	if w.raw != nil || w.body != nil || w.fw != nil {
		t.Fatalf("writer kept pooled buffers: raw=%v body=%v flate=%v", w.raw != nil, w.body != nil, w.fw != nil)
	}
}

// TestTraceWriterStoresNothingUnlessCommitted covers every way a stream can
// end without a stored trace: over its entry limit, aborted, or on a
// read-only cache. None of them touches the store or the manifest, and each
// returns its pooled buffers. A trace that exactly fits the limit is stored.
func TestTraceWriterStoresNothingUnlessCommitted(t *testing.T) {
	const limit = diskBlockEntries + 5
	src := testTrace(limit+1, 8)
	defer src.Release()
	stream := func(w *TraceWriter, n int) {
		for i := 0; i < n; i++ {
			w.Append(src.At(i))
		}
	}
	mb := NewMemBackend()
	c, err := OpenBackend(mb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	manifestBefore, _ := mb.Get(kindMeta, manifestName)
	assertUntouched := func(t *testing.T) {
		t.Helper()
		if objs, _ := mb.List(kindTrace); len(objs) != 0 {
			t.Fatalf("%d trace objects stored", len(objs))
		}
		if m, _ := mb.Get(kindMeta, manifestName); !bytes.Equal(m, manifestBefore) {
			t.Fatal("manifest rewritten")
		}
		if cc := c.Counters(); cc.Stores != 0 || cc.Entries != 0 || cc.Bytes != 0 {
			t.Fatalf("counters moved: %+v", cc)
		}
	}

	t.Run("over the limit", func(t *testing.T) {
		w := c.NewTraceWriter(SumID("over"), 8, limit)
		stream(w, limit+1)
		assertWriterReleased(t, w)
		if err := w.Commit(1); !errors.Is(err, errTraceLimit) {
			t.Fatalf("Commit = %v, want the limit error", err)
		}
		assertUntouched(t)
	})
	t.Run("aborted", func(t *testing.T) {
		w := c.NewTraceWriter(SumID("aborted"), 8, limit)
		stream(w, limit)
		w.Abort()
		assertWriterReleased(t, w)
		w.Abort()
		if err := w.Commit(1); !errors.Is(err, errWriterClosed) {
			t.Fatalf("Commit after Abort = %v", err)
		}
		assertUntouched(t)
	})
	t.Run("read-only", func(t *testing.T) {
		ro, err := OpenBackend(mb, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ro.Close()
		w := ro.NewTraceWriter(SumID("ro"), 8, 0)
		assertWriterReleased(t, w)
		stream(w, 10)
		if err := w.Commit(1); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("Commit on a read-only cache = %v, want ErrReadOnly", err)
		}
		if err := ro.StoreTrace(SumID("ro"), src, 1); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("StoreTrace on a read-only cache = %v, want ErrReadOnly", err)
		}
		assertUntouched(t)
	})
	t.Run("exactly at the limit", func(t *testing.T) {
		id := SumID("exact")
		w := c.NewTraceWriter(id, 8, limit)
		defer w.Abort()
		stream(w, limit)
		if err := w.Commit(9); err != nil {
			t.Fatal(err)
		}
		assertWriterReleased(t, w)
		if err := w.Commit(9); !errors.Is(err, errWriterClosed) {
			t.Fatalf("second Commit = %v", err)
		}
		got, checksum, err := c.LoadTrace(id)
		if err != nil {
			t.Fatal(err)
		}
		defer got.Release()
		if got.Len() != limit || checksum != 9 {
			t.Fatalf("loaded %d entries, checksum %d", got.Len(), checksum)
		}
	})
}

// loopTrace is a capture-shaped trace: a short loop body re-executed with a
// striding load, which compresses as well as real sweep traces do (under
// 1 B/entry on disk against 31 B packed).
func loopTrace(n int) *trace.Recorder {
	ops := []isa.Op{isa.OpLoad, isa.OpAdd, isa.OpStore, isa.OpAdd, isa.OpBeq}
	rec := trace.NewRecorder(0, 0)
	for i := 0; i < n; i++ {
		k := i % len(ops)
		e := trace.Entry{PC: 0x400000 + uint64(k)*4, Op: ops[k], Dst: uint8(k + 1), Src1: uint8(k), Src2: 2}
		switch ops[k] {
		case isa.OpLoad, isa.OpStore:
			e.Addr, e.Size = 0x10000+uint64(i/len(ops))*8, 8
		case isa.OpBeq:
			e.Taken, e.Target = true, 0x400000
		}
		rec.Append(e)
	}
	return rec
}

// TestTraceStoreAllocationBound is a deterministic memory gate on the store
// path: with the GC off and the pools warm, storing a trace may allocate at
// most twice its encoded size plus 1 MiB, whether it comes from a Recorder
// or streams entry by entry. The bound is in bytes allocated per store, not
// time, so host noise cannot move it.
func TestTraceStoreAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("stores a 300k-entry trace several times")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers, so the pools never stay warm")
	}
	const entries = 300_000
	rec := loopTrace(entries)
	defer rec.Release()
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P: a sync.Pool's private slot on one P is invisible to the
	// others, so a goroutine that moved to another P between the warm-up
	// and the measured store would find the pools cold.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	paths := []struct {
		name  string
		store func(id ID) error
	}{
		{"StoreTrace", func(id ID) error { return c.StoreTrace(id, rec, 1) }},
		{"streamed", func(id ID) error {
			w := c.NewTraceWriter(id, 0, 0)
			defer w.Abort()
			for i := 0; i < entries; i++ {
				w.Append(rec.At(i))
			}
			return w.Commit(1)
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			if err := p.store(SumID("warm/" + p.name)); err != nil {
				t.Fatal(err)
			}
			id := SumID("gate/" + p.name)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := p.store(id); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			encoded := c.entries[kindTrace+"/"+id.String()].Bytes
			alloc := after.TotalAlloc - before.TotalAlloc
			bound := 2*uint64(encoded) + 1<<20
			t.Logf("%d entries: encoded %d B (%.2f B/entry), allocated %d B, bound %d B",
				entries, encoded, float64(encoded)/entries, alloc, bound)
			if alloc > bound {
				t.Fatalf("storing allocated %d B, more than 2x the %d B encoded trace plus 1 MiB", alloc, encoded)
			}
		})
	}
}
