package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
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
// striding load, which encodes as compactly as real sweep traces do (about
// a byte per entry).
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

// shapedTrace builds a trace the encoding compresses (loopTrace: predicted
// entries, about a byte each) or one it cannot (testTrace: every entry a
// new site, carried by its own site-table row and explicit values).
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
			raw, err := os.ReadFile(c.path(kindTrace, id))
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
	raw, err := os.ReadFile(c.path(kindTrace, id))
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
	raw, err := os.ReadFile(c.path(kindResult, id))
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
	if cc := c.Counters(); cc.Stores != 0 || cc.Entries != 0 {
		t.Fatalf("counters after refused store: %+v", cc)
	}
}

// TestLRUEviction fills a capped cache and checks the oldest-used entries
// fall out first, that a hit refreshes recency, and that an entry larger
// than the whole cap is rejected outright, evicting nothing.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{MaxBytes: 3 * int64(resultFileLen)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids := make([]ID, 4)
	for i := range ids {
		ids[i] = SumID(fmt.Sprintf("lru-%d", i))
	}
	// Recency is time.Now-based; consecutive stores get strictly ordered
	// UnixNano stamps on any clock with ns resolution, but force distinct
	// stamps explicitly to keep the test hermetic.
	for i := 0; i < 3; i++ {
		if err := c.StoreResult(ids[i], &CellResult{Stats: testStats()}); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	for i := 0; i < 3; i++ {
		c.entries[kindResult+"/"+ids[i].String()].LastUse = int64(1000 + i)
	}
	c.mu.Unlock()
	// Touch ids[0]: it becomes the most recent, so ids[1] is now oldest.
	if _, err := c.LoadResult(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreResult(ids[3], &CellResult{Stats: testStats()}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(c.path(kindResult, ids[1])); !os.IsNotExist(err) {
		t.Fatal("ids[1] (least recently used) was not evicted")
	}
	for _, keep := range []int{0, 2, 3} {
		if _, err := os.Stat(c.path(kindResult, ids[keep])); err != nil {
			t.Fatalf("ids[%d] should have survived: %v", keep, err)
		}
	}
	cc := c.Counters()
	if cc.Evictions != 1 || cc.Entries != 3 || cc.Bytes != uint64(3*resultFileLen) {
		t.Fatalf("counters: %+v", cc)
	}

	// An entry alone exceeding the cap is rejected outright: it evicts
	// nothing, and leaves nothing of its own on disk.
	big, err := Open(t.TempDir(), Options{MaxBytes: 3 * int64(resultFileLen)})
	if err != nil {
		t.Fatal(err)
	}
	defer big.Close()
	kept := []ID{SumID("kept-0"), SumID("kept-1")}
	for _, id := range kept {
		if err := big.StoreResult(id, &CellResult{Stats: testStats()}); err != nil {
			t.Fatal(err)
		}
	}
	tooBig := testTrace(1000, 8)
	defer tooBig.Release()
	if err := big.StoreTrace(SumID("too-big"), tooBig, 1); err != nil {
		t.Fatal(err)
	}
	bc := big.Counters()
	if bc.Rejected != 1 || bc.Evictions != 0 || bc.Entries != 2 || bc.Bytes != uint64(2*resultFileLen) {
		t.Fatalf("oversized store counters: %+v", bc)
	}
	if _, err := os.Stat(big.path(kindTrace, SumID("too-big"))); !os.IsNotExist(err) {
		t.Fatal("oversized entry left on disk")
	}
	for _, id := range kept {
		if _, err := big.LoadResult(id); err != nil {
			t.Fatalf("an oversized store evicted a resident entry: %v", err)
		}
	}
}

// TestManifestCrashRecovery simulates a writer that died mid-store (stray
// temp files, a half-written manifest, a manifest gone entirely) and checks
// a fresh Open recovers the full store from the files alone.
func TestManifestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tid, rid := SumID("crash-trace"), SumID("crash-result")
	if err := c.StoreTrace(tid, testTrace(10, 0), 3); err != nil {
		t.Fatal(err)
	}
	if err := c.StoreResult(rid, &CellResult{Stats: testStats()}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// The crash: stray temp files and a torn manifest replacement.
	for _, stray := range []string{
		filepath.Join(dir, "traces", "deadbeef.trc.tmp.12345"),
		filepath.Join(dir, "results", "deadbeef.res.tmp.12345"),
		filepath.Join(dir, manifestName+".tmp"),
	} {
		if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, stray := range []string{
		filepath.Join(dir, "traces", "deadbeef.trc.tmp.12345"),
		filepath.Join(dir, "results", "deadbeef.res.tmp.12345"),
		filepath.Join(dir, manifestName+".tmp"),
	} {
		if _, err := os.Stat(stray); !os.IsNotExist(err) {
			t.Fatalf("stray temp %s survived reopen", stray)
		}
	}
	if cc := re.Counters(); cc.Entries != 2 {
		t.Fatalf("reconcile adopted %d entries, want 2 (%+v)", cc.Entries, cc)
	}
	if rec, checksum, err := re.LoadTrace(tid); err != nil || checksum != 3 {
		t.Fatalf("trace lost after crash: %v (checksum %d)", err, checksum)
	} else {
		rec.Release()
	}
	if _, err := re.LoadResult(rid); err != nil {
		t.Fatalf("result lost after crash: %v", err)
	}

	// Losing the manifest entirely costs nothing but recency either.
	re.Close()
	os.Remove(filepath.Join(dir, manifestName))
	re2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if cc := re2.Counters(); cc.Entries != 2 {
		t.Fatalf("manifest-less reconcile adopted %d entries, want 2", cc.Entries)
	}
}

// TestConcurrentCachesSingleFlight drives two Cache handles on one directory
// (the two-process case) through contended capture locks and simultaneous
// stores, then checks the manifest survived as valid JSON covering every
// file.
func TestConcurrentCachesSingleFlight(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// The capture lock is exclusive across handles and reusable after
	// release.
	id := SumID("flight")
	relA, ok := a.TryLock(id)
	if !ok {
		t.Fatal("first TryLock should lead")
	}
	if _, ok := b.TryLock(id); ok {
		t.Fatal("second handle stole a held lock")
	}
	relA()
	relB, ok := b.TryLock(id)
	if !ok {
		t.Fatal("released lock not reacquirable")
	}
	relB()

	// Hammer both handles with concurrent stores and loads of interleaved
	// identities; single-flight each identity via TryLock exactly as the
	// harness does.
	const n = 24
	var wg sync.WaitGroup
	for w, c := range []*Cache{a, b} {
		wg.Add(1)
		go func(w int, c *Cache) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				kid := SumID(fmt.Sprintf("conc-%d", i))
				if release, lead := c.TryLock(kid); lead {
					if err := c.StoreTrace(kid, testTrace(5+i, 0), uint64(i)); err != nil {
						t.Errorf("worker %d store %d: %v", w, i, err)
					}
					release()
				} else {
					c.WaitUnlocked(kid)
				}
				if rec, _, err := c.LoadTrace(kid); err == nil {
					rec.Release()
				} else if !errors.Is(err, ErrMiss) {
					t.Errorf("worker %d load %d: %v", w, i, err)
				}
			}
		}(w, c)
	}
	wg.Wait()
	a.Close()
	b.Close()

	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest corrupted by concurrent flushes: %v", err)
	}
	if m.Version != FormatVersion {
		t.Fatalf("manifest version %d", m.Version)
	}
	fresh, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for i := 0; i < n; i++ {
		kid := SumID(fmt.Sprintf("conc-%d", i))
		rec, checksum, err := fresh.LoadTrace(kid)
		if err != nil {
			t.Fatalf("identity %d missing after concurrent run: %v", i, err)
		}
		if checksum != uint64(i) || rec.Len() != 5+i {
			t.Fatalf("identity %d: checksum %d len %d", i, checksum, rec.Len())
		}
		rec.Release()
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
	path := rw.path(kindTrace, id)
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
	path := c.path(kindTrace, id)
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
	rpath := c.path(kindResult, rid)
	rraw, _ := os.ReadFile(rpath)
	mut := bytes.Clone(rraw)
	binary.LittleEndian.PutUint32(mut[8:12], FormatVersion+3)
	os.WriteFile(rpath, mut, 0o644)
	if _, err := c.LoadResult(rid); !errors.As(err, &verr) {
		t.Fatalf("result version skew: %v", err)
	}
}
