package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rest/internal/cpu"
	"rest/internal/isa"
	"rest/internal/trace"
)

// testTrace builds a deterministic recorder exercising every entry field:
// memory ops with addresses and sizes, taken and fallthrough branches with
// targets, faulting entries, the full register byte range. Every entry is
// at a new PC, so none of it is predictable.
func testTrace(n int, tokenWidth uint64) *trace.Recorder {
	rec := trace.NewRecorder(tokenWidth, 0)
	for i := 0; i < n; i++ {
		e := trace.Entry{
			PC:   0x400000 + uint64(i)*4,
			Op:   isa.Op(i % 7),
			Kind: trace.Kind(i % 2),
			Dst:  uint8(i % 251),
			Src1: uint8((i * 3) % 253),
			Src2: uint8((i * 7) % 254),
		}
		switch i % 3 {
		case 0:
			e.Addr = 0xdead0000 + uint64(i)*8
			e.Size = uint8(1 << (i % 4))
		case 1:
			e.Taken = i%2 == 0
			e.Target = 0x500000 + uint64(i)
		case 2:
			e.Faults = i%5 == 0
		}
		rec.Append(e)
	}
	return rec
}

// loopTrace is a capture-shaped trace: a short loop body re-executed with a
// striding load. After its first iterations every entry is fully predicted,
// so the run code carries each block in a few bytes.
func loopTrace(n int, tokenWidth uint64) *trace.Recorder {
	ops := []isa.Op{isa.OpLoad, isa.OpAdd, isa.OpStore, isa.OpAdd, isa.OpBeq}
	rec := trace.NewRecorder(tokenWidth, 0)
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

// shapedTrace builds a trace the encoding compresses (loopTrace: runs of
// fully predicted entries) or one it cannot (testTrace: every entry a new
// site, carried by its own site-table row and explicit values).
func shapedTrace(compress bool, n int, tokenWidth uint64) *trace.Recorder {
	if compress {
		return loopTrace(n, tokenWidth)
	}
	return testTrace(n, tokenWidth)
}

// traceShapes are the two shapedTrace kinds the codec tests run over.
var traceShapes = []struct {
	name     string
	compress bool
}{{"compressed", true}, {"raw", false}}

func assertTraceEqual(t *testing.T, want, got *trace.Recorder) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("length: want %d got %d", want.Len(), got.Len())
	}
	if want.TokenWidth() != got.TokenWidth() {
		t.Fatalf("token width: want %d got %d", want.TokenWidth(), got.TokenWidth())
	}
	for i := 0; i < want.Len(); i++ {
		if w, g := want.At(i), got.At(i); w != g {
			t.Fatalf("entry %d: want %+v got %+v", i, w, g)
		}
	}
}

// traceBlockEntries is the trace encoding's block size: traces one entry
// either side of a multiple of it end in a full or a one-entry block.
const traceBlockEntries = 16384

// TestTraceCodecRoundTrip stores a multi-block trace of each shape and
// loads it back: the same entries and checksum, counted as one store and
// one hit.
func TestTraceCodecRoundTrip(t *testing.T) {
	for _, tt := range traceShapes {
		t.Run(tt.name, func(t *testing.T) {
			c, err := Open(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rec := shapedTrace(tt.compress, traceBlockEntries+1234, 8)
			defer rec.Release()
			id := SumID("round-trip/" + tt.name)
			if err := c.StoreTrace(id, rec, 0xfeedface); err != nil {
				t.Fatal(err)
			}
			got, checksum, err := c.LoadTrace(id)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Release()
			if checksum != 0xfeedface {
				t.Fatalf("checksum: got %#x", checksum)
			}
			assertTraceEqual(t, rec, got)
			cc := c.Counters()
			if cc.TraceHits != 1 || cc.Stores != 1 {
				t.Fatalf("counters: %+v", cc)
			}
		})
	}
}

// TestTraceDecodeEveryByteFlip flips one bit in every byte position of a
// stored trace file and demands a typed error each time: the format has no
// byte whose silent mutation can survive validation, whether its entries
// are predicted or carried explicitly.
func TestTraceDecodeEveryByteFlip(t *testing.T) {
	for _, tt := range traceShapes {
		t.Run(tt.name, func(t *testing.T) {
			c, err := Open(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rec := shapedTrace(tt.compress, 100, 8)
			defer rec.Release()
			id := SumID("flip/" + tt.name)
			if err := c.StoreTrace(id, rec, 7); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(c.path(traceKind, id))
			if err != nil {
				t.Fatal(err)
			}
			for i := range raw {
				mut := bytes.Clone(raw)
				mut[i] ^= 0x40
				got, _, derr := decodeTrace(mut, &id)
				if derr == nil {
					got.Release()
					t.Fatalf("flip at byte %d/%d decoded successfully", i, len(raw))
				}
				var cerr *CorruptError
				var verr *VersionError
				if !errors.As(derr, &cerr) && !errors.As(derr, &verr) {
					t.Fatalf("flip at byte %d: untyped error %v", i, derr)
				}
			}
		})
	}
}

// TestTraceDecodeTruncation truncates a stored trace at every prefix length
// and demands a typed error, never a short replay.
func TestTraceDecodeTruncation(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := testTrace(50, 0)
	id := SumID("trunc")
	if err := c.StoreTrace(id, rec, 1); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(c.path(traceKind, id))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(raw); n++ {
		got, _, derr := decodeTrace(raw[:n], &id)
		if derr == nil {
			got.Release()
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(raw))
		}
		var cerr *CorruptError
		if !errors.As(derr, &cerr) {
			t.Fatalf("truncation to %d: untyped error %v", n, derr)
		}
	}
}

func testStats() cpu.Stats {
	return cpu.Stats{
		Cycles: 123456, Instructions: 100000, UserInstrs: 90000, RuntimeOps: 10000,
		IPC:         0.8100000000000001, // an IEEE-754 value that must round-trip bit-exactly
		Mispredicts: 321, BranchLookups: 4567, LSQForwardings: 89,
		ROBFullCycles: 11, IQFullCycles: 22, LQFullCycles: 33, SQFullCycles: 44,
		ROBStoreBlockCycles: 55,
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := SumID("result-round-trip")
	in := &CellResult{Stats: testStats(), Checksum: 0xabcdef0123456789}
	if err := c.StoreResult(id, in); err != nil {
		t.Fatal(err)
	}
	out, err := c.LoadResult(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in %+v\nout %+v", in, out)
	}
	if math.Float64bits(in.Stats.IPC) != math.Float64bits(out.Stats.IPC) {
		t.Fatal("IPC not bit-exact")
	}
}

// TestResultReadBounds pins the edges of LoadResult's bounded read, which
// stops one byte past a result file's length: a file with bytes appended,
// one or a page of them, is corrupt, and so is one cut a byte short, while
// an exact file decodes. A corrupt file is deleted in read-write mode; in
// read-only mode it stays as it is and counts again on every read. A
// directory in the file's place is neither: it is unavailable, and stays.
func TestResultReadBounds(t *testing.T) {
	t.Parallel()
	id := SumID("bounds")
	in := &CellResult{Stats: testStats(), Checksum: 7}
	// fill stores in's result file in a fresh store, rewrites it with
	// damage, and returns the store's directory and the file's path.
	fill := func(t *testing.T, damage func([]byte) []byte) (dir, path string) {
		t.Helper()
		dir = t.TempDir()
		c, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.StoreResult(id, in); err != nil {
			t.Fatal(err)
		}
		path = c.path(resultKind, id)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, damage(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir, path
	}

	t.Run("exact", func(t *testing.T) {
		dir, _ := fill(t, func(raw []byte) []byte { return raw })
		c, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.LoadResult(id)
		if err != nil || !reflect.DeepEqual(in, out) {
			t.Fatalf("a %d-byte result file loaded as %+v, %v", resultFileLen, out, err)
		}
	})

	for _, tt := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"one byte appended", func(raw []byte) []byte { return append(raw, 0) }},
		{"4096 bytes appended", func(raw []byte) []byte { return append(raw, make([]byte, 4096)...) }},
		{"one byte short", func(raw []byte) []byte { return raw[:resultFileLen-1] }},
	} {
		for _, readOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/read-only=%t", tt.name, readOnly), func(t *testing.T) {
				dir, path := fill(t, tt.damage)
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				c, err := Open(dir, Options{ReadOnly: readOnly})
				if err != nil {
					t.Fatal(err)
				}
				for round := 1; round <= 2; round++ {
					_, err := c.LoadResult(id)
					var cerr *CorruptError
					corruptions := uint64(round)
					if !readOnly && round == 2 {
						// Deleted on the first read: a plain miss now.
						corruptions = 1
						if !errors.Is(err, ErrMiss) {
							t.Fatalf("round %d: a load after the delete = %v, want ErrMiss", round, err)
						}
					} else if !errors.As(err, &cerr) {
						t.Fatalf("round %d: a %d-byte file loaded with %v, want a *CorruptError", round, len(want), err)
					}
					got, err := os.ReadFile(path)
					if readOnly && !bytes.Equal(got, want) {
						t.Fatalf("round %d: the read-only store changed the file (%v)", round, err)
					}
					if !readOnly && !os.IsNotExist(err) {
						t.Fatalf("round %d: the read-write store left the corrupt file (%v)", round, err)
					}
					if cc, w := c.Counters(), (Counters{ResultMisses: uint64(round), Corruptions: corruptions}); cc != w {
						t.Fatalf("round %d: counters %+v, want %+v", round, cc, w)
					}
				}
			})
		}
	}

	t.Run("directory/read-only=true", func(t *testing.T) {
		dir, path := fill(t, func(raw []byte) []byte { return raw })
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		var cerr *CorruptError
		if _, err := c.LoadResult(id); err == nil || errors.Is(err, ErrMiss) || errors.As(err, &cerr) {
			t.Fatalf("load of a directory entry = %v, want an I/O error", err)
		}
		if cc, w := c.Counters(), (Counters{ResultMisses: 1, Unavailable: 1}); cc != w {
			t.Fatalf("counters %+v, want %+v", cc, w)
		}
		if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
			t.Fatalf("the directory entry was touched: %v", err)
		}
	})
}

// TestChecksumIEEE holds decodeResult's in-place CRC to the library's.
func TestChecksumIEEE(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= 2*resultFileLen; n++ {
		p := make([]byte, n)
		r.Read(p)
		if got, want := checksumIEEE(p), crc32.ChecksumIEEE(p); got != want {
			t.Fatalf("%d bytes: checksumIEEE %#x, crc32.ChecksumIEEE %#x", n, got, want)
		}
	}
}

func TestResultDecodeEveryByteFlip(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := SumID("result-flip")
	if err := c.StoreResult(id, &CellResult{Stats: testStats(), Checksum: 9}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(c.path(resultKind, id))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != resultFileLen {
		t.Fatalf("result file is %d bytes, want %d", len(raw), resultFileLen)
	}
	for i := range raw {
		mut := bytes.Clone(raw)
		mut[i] ^= 0x40
		if _, derr := decodeResult(mut, &id); derr == nil {
			t.Fatalf("flip at byte %d decoded successfully", i)
		}
	}
}

// TestResultCodecCoversStats pins the codec to the exact field set of
// cpu.Stats: a new field fails this test until packStats/unpackStats learn
// it and FormatVersion is bumped, which is what keeps old files from being
// silently misread as complete.
func TestResultCodecCoversStats(t *testing.T) {
	known := map[string]bool{
		"Cycles": true, "Instructions": true, "UserInstrs": true, "RuntimeOps": true,
		"IPC": true, "Mispredicts": true, "BranchLookups": true, "LSQForwardings": true,
		"ROBFullCycles": true, "IQFullCycles": true, "LQFullCycles": true, "SQFullCycles": true,
		"ROBStoreBlockCycles": true,
		// Not packed as uint64 slots, but handled explicitly: Exception is
		// nil by the clean-cells-only rule (StoreResult enforces it) and
		// LSQViolation is the format's detection byte.
		"Exception": true, "LSQViolation": true,
	}
	st := reflect.TypeOf(cpu.Stats{})
	if st.NumField() != len(known) {
		t.Fatalf("cpu.Stats has %d fields, codec knows %d — update the result codec and bump FormatVersion", st.NumField(), len(known))
	}
	for i := 0; i < st.NumField(); i++ {
		if !known[st.Field(i).Name] {
			t.Fatalf("cpu.Stats field %q is unknown to the result codec — update it and bump FormatVersion", st.Field(i).Name)
		}
	}
	if resultFileLen != 8+4+32+resultNumFields*8+1+8+4 {
		t.Fatalf("resultFileLen %d inconsistent with layout", resultFileLen)
	}
}

func TestStoreResultRefusesDetections(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bad := testStats()
	bad.LSQViolation = true
	if err := c.StoreResult(SumID("bad"), &CellResult{Stats: bad}); err == nil {
		t.Fatal("stored a detected cell result")
	}
	if cc := c.Counters(); cc.Stores != 0 || cc.Bytes != 0 {
		t.Fatalf("counters after refused store: %+v", cc)
	}
}

// TestConcurrentCachesSingleFlight drives two Cache handles on one directory
// (the two-process case) through simultaneous stores and loads of the same
// identities, then checks a fresh handle loads every entry intact: atomic,
// content-addressed stores make concurrent writers of one entry harmless.
func TestConcurrentCachesSingleFlight(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	const n = 24
	result := func(i int) *CellResult {
		st := testStats()
		st.Cycles += uint64(i)
		return &CellResult{Stats: st, Checksum: uint64(i)}
	}
	var wg sync.WaitGroup
	for w, c := range []*Cache{a, b} {
		wg.Add(1)
		go func(w int, c *Cache) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				kid := SumID(fmt.Sprintf("conc-%d", i))
				if err := c.StoreResult(kid, result(i)); err != nil {
					t.Errorf("worker %d store %d: %v", w, i, err)
				}
				if _, err := c.LoadResult(kid); err != nil {
					t.Errorf("worker %d load %d: %v", w, i, err)
				}
			}
		}(w, c)
	}
	wg.Wait()
	for _, c := range []*Cache{a, b} {
		if cc := c.Counters(); cc.Stores != n || cc.Bytes != n*resultFileLen || cc.Corruptions != 0 {
			t.Fatalf("counters: %+v", cc)
		}
	}

	fresh, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := fresh.LoadResult(SumID(fmt.Sprintf("conc-%d", i)))
		if err != nil {
			t.Fatalf("identity %d missing after concurrent run: %v", i, err)
		}
		if !reflect.DeepEqual(got, result(i)) {
			t.Fatalf("identity %d: %+v", i, got)
		}
	}
}

func TestReadOnlySemantics(t *testing.T) {
	dir := t.TempDir()
	rw, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := SumID("ro")
	if err := rw.StoreTrace(id, testTrace(5, 0), 1); err != nil {
		t.Fatal(err)
	}
	rw.Close()

	// Corrupt the stored file; read-only must report it but leave it alone.
	path := rw.path(traceKind, id)
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xff
	os.WriteFile(path, raw, 0o644)

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ro.StoreTrace(SumID("other"), testTrace(1, 0), 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only store: %v", err)
	}
	if err := ro.StoreResult(SumID("other"), &CellResult{Stats: testStats()}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only result store: %v", err)
	}
	var cerr *CorruptError
	if _, _, err := ro.LoadTrace(id); !errors.As(err, &cerr) {
		t.Fatalf("corrupt load in ro mode: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("read-only cache deleted a corrupt file")
	}
	if cc := ro.Counters(); cc.Corruptions != 1 {
		t.Fatalf("counters: %+v", cc)
	}

	// A read-write reopen deletes it on sight.
	rw2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rw2.Close()
	if _, _, err := rw2.LoadTrace(id); !errors.As(err, &cerr) {
		t.Fatalf("corrupt load in rw mode: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("read-write cache left a corrupt file in place")
	}

	if _, err := Open(filepath.Join(dir, "nope"), Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only Open of a missing directory succeeded")
	}
}

// patchVersion rewrites a trace file header's format version and repairs the
// header CRC so only the version gate can object.
func patchVersion(t *testing.T, raw []byte, v uint32) []byte {
	t.Helper()
	mut := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(mut[8:12], v)
	binary.LittleEndian.PutUint32(mut[76:80], crc32.ChecksumIEEE(mut[:76]))
	return mut
}

// TestVersionSkewRejected proves a structurally perfect file from another
// format generation is refused with *VersionError — and that the cache-level
// load turns it into a clean recompute (file deleted, miss counted), never a
// misread.
func TestVersionSkewRejected(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := SumID("skew")
	if err := c.StoreTrace(id, testTrace(20, 4), 5); err != nil {
		t.Fatal(err)
	}
	path := c.path(traceKind, id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, patchVersion(t, raw, FormatVersion+1), 0o644); err != nil {
		t.Fatal(err)
	}

	var verr *VersionError
	if _, _, err := c.LoadTrace(id); !errors.As(err, &verr) {
		t.Fatalf("want *VersionError, got %v", err)
	}
	if verr.Got != FormatVersion+1 {
		t.Fatalf("VersionError.Got = %d", verr.Got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("version-skewed file not deleted in rw mode")
	}
	// The recompute path: the identity is now a plain miss and storable
	// again.
	if _, _, err := c.LoadTrace(id); !errors.Is(err, ErrMiss) {
		t.Fatalf("after rejection: %v", err)
	}
	if err := c.StoreTrace(id, testTrace(20, 4), 5); err != nil {
		t.Fatal(err)
	}
	if rec, checksum, err := c.LoadTrace(id); err != nil || checksum != 5 {
		t.Fatalf("rewrite after rejection: %v", err)
	} else {
		rec.Release()
	}

	// Same gate on the result tier.
	rid := SumID("skew-result")
	if err := c.StoreResult(rid, &CellResult{Stats: testStats()}); err != nil {
		t.Fatal(err)
	}
	rpath := c.path(resultKind, rid)
	rraw, _ := os.ReadFile(rpath)
	mut := bytes.Clone(rraw)
	binary.LittleEndian.PutUint32(mut[8:12], FormatVersion+3)
	os.WriteFile(rpath, mut, 0o644)
	if _, err := c.LoadResult(rid); !errors.As(err, &verr) {
		t.Fatalf("result version skew: %v", err)
	}
}

// TestStoreLayout pins the directory store's crash and layout behaviour: a
// new store holds only results/ (traces/ appears on the first trace put), a
// read-write open sweeps the temp files of writers that died mid-put (and
// only those), and a store whose root vanished is never recreated — a put
// into it fails and is counted as unavailable.
func TestStoreLayout(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != "results" {
		t.Fatalf("a new store holds %v (%v), want only results/", ents, err)
	}
	kept := SumID("kept")
	if err := c.StoreResult(kept, &CellResult{Stats: testStats()}); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreTrace(kept, testTrace(3, 0), 1); err != nil {
		t.Fatalf("first trace put: %v", err)
	}

	strays := []string{
		filepath.Join(dir, "traces", ".tmp", "deadbeef.trc.12345.1"),
		filepath.Join(dir, "results", ".tmp", "deadbeef.res.12345.2"),
	}
	for _, stray := range strays {
		if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// An older build wrote its temps beside the entries. Nothing opens them
	// by those names, and an open lists only the temp directories, so they
	// stay until the store is cleared.
	legacy := filepath.Join(dir, "results", kept.String()+".res.tmp.12345.3")
	if err := os.WriteFile(legacy, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{ReadOnly: true}); err != nil {
		t.Fatal(err)
	}
	for _, stray := range strays {
		if _, err := os.Stat(stray); err != nil {
			t.Fatalf("a read-only open removed %s: %v", stray, err)
		}
	}
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, stray := range strays {
		if _, err := os.Stat(stray); !os.IsNotExist(err) {
			t.Fatalf("stray temp %s survived a read-write open", stray)
		}
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Fatalf("a read-write open listed results/ and removed an old build's temp: %v", err)
	}
	if _, err := c.LoadResult(kept); err != nil {
		t.Fatalf("the sweep removed a published result: %v", err)
	}
	if rec, _, err := c.LoadTrace(kept); err != nil {
		t.Fatalf("the sweep removed a published trace: %v", err)
	} else {
		rec.Release()
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreResult(SumID("late"), &CellResult{Stats: testStats()}); err == nil {
		t.Fatalf("a put into a vanished store succeeded")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a put recreated the vanished store root: %v", err)
	}
	if cc := c.Counters(); cc.Unavailable != 1 || cc.Stores != 2 {
		t.Fatalf("counters after a put into a vanished store: %+v", cc)
	}
}

// TestUnreadableEntry pins the fourth load shape: a result path the store
// cannot read (here a directory, which stays unreadable even to root) is
// neither a miss nor corruption. The load fails, the failed read and the
// failed rewrite over it are counted as unavailable, nothing is deleted,
// and every later load of the identity misses the same way.
func TestUnreadableEntry(t *testing.T) {
	t.Parallel()
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := SumID("unreadable")
	if err := os.Mkdir(c.path(resultKind, id), 0o755); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		_, err := c.LoadResult(id)
		var cerr *CorruptError
		if err == nil || errors.Is(err, ErrMiss) || errors.As(err, &cerr) {
			t.Fatalf("round %d: load of a directory entry = %v, want an I/O error", round, err)
		}
		if err := c.StoreResult(id, &CellResult{Stats: testStats()}); err == nil {
			t.Fatalf("round %d: a put replaced the directory entry", round)
		}
		want := Counters{ResultMisses: uint64(round), Unavailable: uint64(2 * round)}
		if cc := c.Counters(); cc != want {
			t.Fatalf("round %d: counters %+v, want %+v", round, cc, want)
		}
	}
	if fi, err := os.Stat(c.path(resultKind, id)); err != nil || !fi.IsDir() {
		t.Fatalf("the unreadable entry was touched: %v", err)
	}
	if tmps, _ := os.ReadDir(c.tmpDir(resultKind)); len(tmps) != 0 {
		t.Fatalf("failed puts left temp files: %v", tmps)
	}
}

// TestOpenCostIndependentOfStoreSize pins what a read-write open reads: the
// temp directories only, never the entries beside them, so opening a store
// that holds 500 results allocates no more than opening an empty one.
func TestOpenCostIndependentOfStoreSize(t *testing.T) {
	empty, full := t.TempDir(), t.TempDir()
	c, err := Open(full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := c.StoreResult(SumID(fmt.Sprint("cell ", i)), &CellResult{Stats: testStats()}); err != nil {
			t.Fatal(err)
		}
	}
	open := func(dir string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Open(dir, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if e, f := open(empty), open(full); f > e {
		t.Errorf("opening a store of 500 results allocates %.0f times, an empty store %.0f", f, e)
	}
}
