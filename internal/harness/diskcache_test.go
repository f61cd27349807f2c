package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"rest/internal/attack"
	"rest/internal/cache"
	"rest/internal/core"
	"rest/internal/cpu"
	"rest/internal/obs"
	"rest/internal/persist"
	"rest/internal/prog"
	"rest/internal/trace"
	"rest/internal/workload"
	"rest/internal/world"
)

// The persistent-cache differential: a sweep served from the result store
// must be indistinguishable from a cold or cache-off sweep: identical
// cpu.Stats, byte-identical reports, at any worker count. Corruption
// anywhere degrades to recompute, never to a wrong answer or a crash.

// openDisk opens a persist cache for tests, failing the test on error.
func openDisk(t *testing.T, dir string, opt persist.Options) *persist.Cache {
	t.Helper()
	pc, err := persist.Open(dir, opt)
	if err != nil {
		t.Fatalf("persist.Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { pc.Close() })
	return pc
}

// diskTC builds a TraceCache backed by a fresh persist.Cache on dir.
func diskTC(t *testing.T, dir string, opt persist.Options) (*TraceCache, *persist.Cache) {
	t.Helper()
	pc := openDisk(t, dir, opt)
	tc := NewTraceCache()
	tc.AttachDisk(pc)
	return tc, pc
}

// TestDiskCacheCellDifferential proves bit-exactness of the result store,
// cell by cell, across the full Figure 7 + Figure 8 config matrix: a cold
// cell stores its result and no trace, and a cell served from the result
// store equals the streamed reference exactly.
func TestDiskCacheCellDifferential(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm", "xalanc")
	cfgs := replayMatrixConfigs()
	for _, wl := range wls {
		for _, cfg := range cfgs {
			wl, cfg := wl, cfg
			t.Run(wl.Name+"/"+cfg.Name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()

				streamed, err := runStreamed(wl, cfg, 1, CellLimits{}, nil)
				if err != nil {
					t.Fatalf("streamed run: %v", err)
				}

				// Cold: a cell run on its own streams and stores its
				// result, and nothing else.
				tcCold, pcCold := diskTC(t, dir, persist.Options{})
				cold, err := tcCold.run(wl, cfg, 1, CellLimits{}, &group{})
				if err != nil {
					t.Fatalf("cold run: %v", err)
				}
				assertCellEqual(t, streamed, cold)
				if c := pcCold.Counters(); c.Stores != 1 || c.Bytes != resultFileBytes {
					t.Fatalf("cold run did not store exactly one result: %+v", c)
				}
				if traces, _ := filepath.Glob(filepath.Join(dir, "traces", "*")); len(traces) != 0 {
					t.Fatalf("cold run stored traces: %v", traces)
				}

				// Warm, result tier: the cell's stats come straight off disk.
				tcRes, pcRes := diskTC(t, dir, persist.Options{})
				viaResult, err := tcRes.run(wl, cfg, 1, CellLimits{}, &group{})
				if err != nil {
					t.Fatalf("warm result-tier run: %v", err)
				}
				if c := pcRes.Counters(); c.ResultHits != 1 {
					t.Errorf("result tier not exercised: %+v", c)
				}
				if !reflect.DeepEqual(viaResult.Stats, streamed.Stats) ||
					viaResult.Outcome.Checksum != streamed.Outcome.Checksum {
					t.Errorf("result tier diverges:\nstreamed: %+v\nresult:   %+v",
						streamed.Stats, viaResult.Stats)
				}
			})
		}
	}
}

// TestDiskCacheSweepDifferential pins the report contract: the sensitivity
// sweep renders byte-identical tables and CSVs cold, warm and with the
// persistent cache off, at -j 1 and -j 4, and every warm cell's stats equal
// the cache-off cell's exactly. Two more inputs pin what a store holds:
// after cold sensitivity and Figure 7 sweeps it holds results and nothing
// else, and a store in the older layout (results plus a manifest.json and
// stored traces) serves every cell from its results and leaves the rest
// untouched.
func TestDiskCacheSweepDifferential(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm", "sjeng", "xalanc")
	cfgs := Fig8SensitivityConfigs()
	ctx := context.Background()
	dir := t.TempDir()

	type rendering struct {
		table, csv string
		m          *Matrix
	}
	render := func(tc *TraceCache, workers int) rendering {
		t.Helper()
		m, err := RunMatrixParallel(ctx, wls, cfgs, 1, ParallelOptions{Workers: workers, TraceCache: tc})
		if err != nil {
			t.Fatalf("sweep (workers=%d): %v", workers, err)
		}
		return rendering{m.RenderOverheadTable("sensitivity"), m.CSV(), m}
	}

	coldTC, _ := diskTC(t, dir, persist.Options{})
	cold := render(coldTC, 1)
	warmTC, warmPC := diskTC(t, dir, persist.Options{})
	warm := render(warmTC, 4)
	warmJ1TC, _ := diskTC(t, dir, persist.Options{})
	warmJ1 := render(warmJ1TC, 1)
	off := render(NewTraceCache(), 4)

	if c := warmPC.Counters(); c.ResultHits == 0 {
		t.Errorf("warm sweep never hit the result store: %+v", c)
	}

	// (a) Results only: cold sensitivity and Figure 7 sweeps — shared and
	// unshared identities — leave the store holding one result per distinct
	// cell and nothing else.
	freshDir := t.TempDir()
	freshTC, _ := diskTC(t, freshDir, persist.Options{})
	cells := map[persist.ID]bool{}
	for _, grid := range [][]BinaryConfig{cfgs, Fig7Configs()} {
		if _, err := RunMatrixParallel(ctx, wls, grid, 1, ParallelOptions{Workers: 2, TraceCache: freshTC}); err != nil {
			t.Fatal(err)
		}
		for _, wl := range wls {
			for _, cfg := range grid {
				cells[resultIdentity(cellTraceKey(wl.Name, cfg, 1, 0), timingIdentity(cfg))] = true
			}
		}
	}
	if got := len(resultFiles(t, freshDir)); got != len(cells) {
		t.Errorf("store holds %d results after %d distinct cold cells", got, len(cells))
	}
	if ents, err := os.ReadDir(freshDir); err != nil || len(ents) != 1 || ents[0].Name() != "results" {
		t.Errorf("cold sweeps left %v (%v) in the store; want results/ only", ents, err)
	}

	// (b) A store in the older layout: the cold results, a manifest.json
	// indexing them and a stored trace for one of the grid's functional
	// identities. Every cell is served from its result, the report is
	// byte-identical, and neither extra file is read or touched.
	legacy := legacyLayout(t, dir, wls[0], cfgs[0])
	oldTC, oldPC := diskTC(t, dir, persist.Options{})
	old := render(oldTC, 4)
	if c := oldPC.Counters(); c.ResultHits != uint64(len(wls)*len(cfgs)) || c.ResultMisses != 0 ||
		c.TraceHits+c.TraceMisses+c.Stores != 0 {
		t.Errorf("older-layout store not served from results alone: %+v", c)
	}
	for path, want := range legacy {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed or vanished (%v)", path, err)
		}
	}

	for name, r := range map[string]rendering{"warm-j4": warm, "warm-j1": warmJ1, "off": off, "older-layout": old} {
		if r.table != cold.table || r.csv != cold.csv {
			t.Errorf("%s report diverges from cold:\ncold: %s\n%s:  %s", name, cold.table, name, r.table)
		}
	}
	for _, wl := range off.m.Workloads {
		for _, c := range off.m.Configs {
			got, want := warm.m.Result(wl, c), off.m.Result(wl, c)
			if got == nil || want == nil {
				t.Fatalf("%s/%s missing from a sweep", wl, c)
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Errorf("%s/%s stats diverge warm vs off:\nwarm: %+v\noff:  %+v", wl, c, got.Stats, want.Stats)
			}
		}
	}
}

// resultFileBytes is the size of one result file, what the store writes per
// clean cell.
const resultFileBytes = 161

// legacyLayout adds to the result store in dir what an older build also
// kept there: a manifest.json indexing the results, and a stored trace of
// cfg's functional identity for wl. It returns each added file's bytes by
// path.
func legacyLayout(t *testing.T, dir string, wl workload.Workload, cfg BinaryConfig) map[string][]byte {
	t.Helper()
	results, err := filepath.Glob(filepath.Join(dir, "results", "*.res"))
	if err != nil || len(results) == 0 {
		t.Fatalf("no results to index (%v)", err)
	}
	var b strings.Builder
	b.WriteString("{\n \"version\": 2,\n \"entries\": [")
	for i, r := range results {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n  {\"id\": %q, \"kind\": \"result\", \"bytes\": %d, \"last_use\": %d}",
			strings.TrimSuffix(filepath.Base(r), ".res"), resultFileBytes, 1700000000000000000+i)
	}
	b.WriteString("\n ]\n}\n")
	manifest := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(manifest, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	w, err := world.Build(world.Spec{Pass: cfg.Pass, Mode: cfg.Mode, Width: core.Width(cfg.Pass.TokenWidth)}, wl.Build(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(captureTokenWidth(cfg.Pass), 0)
	_, out := w.RunTimedCapture(rec)
	defer rec.Release()
	pc := openDisk(t, dir, persist.Options{})
	fid := persist.SumID(fmt.Sprintf("trace|%+v", cellTraceKey(wl.Name, cfg, 1, 0)))
	if err := pc.StoreTrace(fid, rec, out.Checksum); err != nil {
		t.Fatal(err)
	}

	added := map[string][]byte{}
	for _, path := range []string{manifest, filepath.Join(dir, "traces", fid.String()+".trc")} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		added[path] = raw
	}
	return added
}

// TestDiskCacheCorruptionRecovery damages every file of a warm cache — one
// flipped bit each — and proves the next sweep silently recomputes: reports
// stay byte-identical, harness.diskcache.corruptions counts the damage, and
// the rewritten files serve hits again on the run after that.
func TestDiskCacheCorruptionRecovery(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	ctx := context.Background()
	dir := t.TempDir()

	sweep := func(tc *TraceCache) string {
		t.Helper()
		m, err := RunMatrixParallel(ctx, wls, cfgs, 1, ParallelOptions{Workers: 2, TraceCache: tc})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return m.RenderOverheadTable("sensitivity") + m.CSV()
	}

	coldTC, _ := diskTC(t, dir, persist.Options{})
	cold := sweep(coldTC)

	// Flip one bit in every stored result.
	files, err := filepath.Glob(filepath.Join(dir, "results", "*.res"))
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x40
		if err := os.WriteFile(f, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatalf("cold sweep left nothing on disk to damage")
	}

	hurtTC, hurtPC := diskTC(t, dir, persist.Options{})
	hurt := sweep(hurtTC)
	if hurt != cold {
		t.Errorf("corrupted cache changed the report:\ncold: %s\nhurt: %s", cold, hurt)
	}
	c := hurtPC.Counters()
	if c.Corruptions == 0 {
		t.Errorf("no corruptions counted after damaging %d files: %+v", damaged, c)
	}
	reg := newTestRegistry(t, hurtTC)
	if got := reg["harness.diskcache.corruptions"]; got == 0 {
		t.Errorf("harness.diskcache.corruptions not exported: %v", reg)
	}

	// The damaged entries were recomputed and rewritten: hits again.
	healedTC, healedPC := diskTC(t, dir, persist.Options{})
	healed := sweep(healedTC)
	if healed != cold {
		t.Errorf("healed cache changed the report")
	}
	if hc := healedPC.Counters(); hc.ResultHits == 0 || hc.Corruptions != 0 {
		t.Errorf("cache did not heal: %+v", hc)
	}
}

// TestKilledLeaderRecovery pins crash consistency: a process killed
// mid-sweep leaves the results of the cells it finished and none of the
// cell it was running. A rerun over the same store serves every surviving
// result, recomputes exactly the missing cell, and leaves the store with
// the full result set and no duplicates.
func TestKilledLeaderRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	tc1, _ := diskTC(t, dir, persist.Options{})
	first, _ := sensRender(t, tc1, 1)
	full := len(resultFiles(t, dir))

	// The "kill": the dead process was mid-run on its first cell, so that
	// cell's result never landed. Every other result survives.
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	k0 := cellTraceKey(wls[0].Name, cfgs[0], 1, 0)
	if err := os.Remove(filepath.Join(dir, "results", resultIdentity(k0, timingIdentity(cfgs[0])).String()+".res")); err != nil {
		t.Fatal(err)
	}

	tc2, pc2 := diskTC(t, dir, persist.Options{})
	rerun, _ := sensRender(t, tc2, 1)
	if rerun != first {
		t.Fatalf("rerun after kill rendered differently")
	}
	want := persist.Counters{ResultHits: uint64(full - 1), ResultMisses: 1, Stores: 1, Bytes: resultFileBytes}
	if c := pc2.Counters(); c != want {
		t.Fatalf("rerun counters %+v, want %+v", c, want)
	}
	if got := len(resultFiles(t, dir)); got != full {
		t.Fatalf("store not restored to the full result set: %d vs %d", got, full)
	}
	if reg := newTestRegistry(t, tc2); reg["harness.diskcache.stores"] != 1 {
		t.Errorf("harness.diskcache.stores = %d, want 1: %v", reg["harness.diskcache.stores"], reg)
	}
}

// newTestRegistry snapshots recordDiskObs's export as a name→value map.
func newTestRegistry(t *testing.T, tc *TraceCache) map[string]uint64 {
	t.Helper()
	reg := obs.NewRegistry()
	tc.recordDiskObs(reg)
	out := map[string]uint64{}
	for _, c := range reg.Snapshot() {
		out[c.Name] = c.Value
	}
	return out
}

// TestDiskCacheMicroStats runs the §VI-B micro-stats path — whose cells read
// their metric registries and therefore are never served from the result
// store — cold and warm, asserting identical renderings and that the warm
// run, over a store the cold run filled, finds both results held and
// rewrites neither.
func TestDiskCacheMicroStats(t *testing.T) {
	t.Parallel()
	wl, err := workload.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()

	// Both cells run both times: the cold run misses and stores, the warm
	// run finds both results held and stores nothing.
	coldTC, coldPC := diskTC(t, dir, persist.Options{})
	cold, err := RunMicroStatsParallel(ctx, wl, 1, ParallelOptions{TraceCache: coldTC})
	if err != nil {
		t.Fatalf("cold micro stats: %v", err)
	}
	if c := coldPC.Counters(); c.ResultMisses != 2 || c.Stores != 2 || c.ResultHits != 0 {
		t.Errorf("cold micro stats: %+v, want 2 misses and 2 stores", c)
	}
	warmTC, warmPC := diskTC(t, dir, persist.Options{})
	warm, err := RunMicroStatsParallel(ctx, wl, 1, ParallelOptions{TraceCache: warmTC})
	if err != nil {
		t.Fatalf("warm micro stats: %v", err)
	}
	if cold.Render() != warm.Render() {
		t.Errorf("micro stats diverge:\ncold: %s\nwarm: %s", cold.Render(), warm.Render())
	}
	if c := warmPC.Counters(); c.ResultHits != 2 || c.ResultMisses != 0 || c.Stores != 0 {
		t.Errorf("warm micro stats: %+v, want 2 hits and no store", c)
	}
	if src := warm.Matrix.Result(wl.Name, "secure-full").Source; src == "result-store" {
		t.Errorf("a micro-stats cell was served from the store")
	}
}

// TestDiskCacheMetricsBypass pins the metrics determinism story: cells with
// metric registries are never served from the store (registries are not
// persisted), so a metrics sweep renders identical metrics cold and warm,
// yet they store the clean results the store lacks for later plain runs,
// and a warm rerun stores nothing.
func TestDiskCacheMetricsBypass(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	ctx := context.Background()
	dir := t.TempDir()

	metricsCSV := func(tc *TraceCache) string {
		t.Helper()
		m, err := RunMatrixParallel(ctx, wls, cfgs, 1, ParallelOptions{Workers: 2, Metrics: true, TraceCache: tc})
		if err != nil {
			t.Fatalf("metrics sweep: %v", err)
		}
		return m.Metrics("fig8sens").CSV()
	}

	// Metrics cells are never served, so the warm run recomputes too; each
	// cell reads the store once, and stores its result only on a miss.
	cells := uint64(len(wls) * len(cfgs))
	coldTC, coldPC := diskTC(t, dir, persist.Options{})
	cold := metricsCSV(coldTC)
	if c := coldPC.Counters(); c.Stores != cells || c.ResultHits != 0 || c.ResultMisses != cells {
		t.Errorf("cold metrics run: %+v, want %d misses and %[2]d stores", c, cells)
	}
	warmTC, warmPC := diskTC(t, dir, persist.Options{})
	warm := metricsCSV(warmTC)
	if c := warmPC.Counters(); c.Stores != 0 || c.ResultHits != cells || c.ResultMisses != 0 {
		t.Errorf("warm metrics run: %+v, want %d hits and no store", c, cells)
	}
	if cold != warm {
		t.Errorf("metrics diverge cold vs warm:\ncold: %s\nwarm: %s", cold, warm)
	}
	if strings.Contains(cold, "harness.diskcache.") {
		t.Errorf("diskcache counters leaked into the deterministic metrics report")
	}
}

// TestDiskCacheReadOnly proves -cache-ro semantics at the harness layer: a
// read-only cache serves hits but never writes, and a read-only cache over
// an empty directory degrades every cell to an ordinary run.
func TestDiskCacheReadOnly(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	ctx := context.Background()
	dir := t.TempDir()

	sweep := func(tc *TraceCache) string {
		t.Helper()
		m, err := RunMatrixParallel(ctx, wls, cfgs, 1, ParallelOptions{Workers: 2, TraceCache: tc})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return m.RenderOverheadTable("sensitivity")
	}

	// Read-only over an empty cache: everything recomputes, nothing lands.
	emptyDir := t.TempDir()
	roEmptyTC, roEmptyPC := diskTC(t, emptyDir, persist.Options{ReadOnly: true})
	roEmpty := sweep(roEmptyTC)
	if c := roEmptyPC.Counters(); c.Stores != 0 || c.TraceHits != 0 || c.ResultHits != 0 {
		t.Errorf("read-only cache wrote or hallucinated hits: %+v", c)
	}
	if ents, _ := filepath.Glob(filepath.Join(emptyDir, "*", "*")); len(ents) != 0 {
		t.Errorf("read-only cache left files behind: %v", ents)
	}

	coldTC, _ := diskTC(t, dir, persist.Options{})
	cold := sweep(coldTC)
	roTC, roPC := diskTC(t, dir, persist.Options{ReadOnly: true})
	ro := sweep(roTC)
	if ro != cold || roEmpty != cold {
		t.Errorf("read-only sweeps diverge from cold")
	}
	if c := roPC.Counters(); c.ResultHits == 0 || c.Stores != 0 {
		t.Errorf("warm read-only cache should hit without storing: %+v", c)
	}
}

// TestDiskTraceAttackRoundTrip stores each §V attack's capture — runs that
// end in exceptions and violations, the hardest traces for the token shadow —
// in the on-disk format and replays the loaded copy, asserting stats and
// outcome identical to the streamed run. (The harness itself never persists
// detected cells; this pins that the format would not be the weak link even
// for them.)
func TestDiskTraceAttackRoundTrip(t *testing.T) {
	t.Parallel()
	cfgs := []BinaryConfig{
		{Name: "secure-full", Pass: prog.RESTFull(64), Mode: core.Secure},
		{Name: "debug-full", Pass: prog.RESTFull(64), Mode: core.Debug},
		{Name: "asan", Pass: prog.ASanFull()},
	}
	for _, a := range attack.All() {
		for _, cfg := range cfgs {
			a, cfg := a, cfg
			t.Run(a.Name+"/"+cfg.Name, func(t *testing.T) {
				t.Parallel()
				pc := openDisk(t, t.TempDir(), persist.Options{})
				spec := world.Spec{
					Pass:  cfg.Pass,
					Mode:  cfg.Mode,
					Width: core.Width(cfg.Pass.TokenWidth),
				}
				w, err := world.Build(spec, a.Build)
				if err != nil {
					t.Fatalf("world.Build: %v", err)
				}
				rec := trace.NewRecorder(captureTokenWidth(cfg.Pass), 0)
				wantStats, wantOut := w.RunTimedCapture(rec)

				id := persist.SumID("attack|" + a.Name + "|" + cfg.Name)
				if err := pc.StoreTrace(id, rec, wantOut.Checksum); err != nil {
					t.Fatalf("StoreTrace: %v", err)
				}
				rec.Release()
				loaded, checksum, err := pc.LoadTrace(id)
				if err != nil {
					t.Fatalf("LoadTrace: %v", err)
				}
				defer loaded.Release()
				if checksum != wantOut.Checksum {
					t.Errorf("checksum lost in round trip: %#x != %#x", checksum, wantOut.Checksum)
				}

				rp := loaded.Replayer()
				var tokens cache.TokenSource
				if loaded.TokenWidth() != 0 {
					tokens = rp
				}
				rw, err := world.BuildReplay(spec, tokens)
				if err != nil {
					t.Fatalf("world.BuildReplay: %v", err)
				}
				gotStats, gotOut := rw.ReplayTimed(rp, wantOut)
				if !reflect.DeepEqual(wantStats, gotStats) {
					t.Errorf("stats diverge after disk round trip:\nstreamed: %+v\nreplayed: %+v", wantStats, gotStats)
				}
				if wantOut.String() != gotOut.String() {
					t.Errorf("outcome diverges: streamed=%s replayed=%s", wantOut, gotOut)
				}
			})
		}
	}
}

// TestDiskCacheDetectedCellsNotStored pins the only-clean-cells invariant at
// the store boundary: a detected or failed result never reaches the result
// store.
func TestDiskCacheDetectedCellsNotStored(t *testing.T) {
	t.Parallel()
	pc := openDisk(t, t.TempDir(), persist.Options{})
	id := persist.SumID("detected")
	res := &RunResult{
		Stats:   &cpu.Stats{Cycles: 1, LSQViolation: true},
		Outcome: world.Outcome{Checksum: 1},
	}
	storeResult(pc, id, res)
	if c := pc.Counters(); c.Stores != 0 {
		t.Errorf("detected cell was stored: %+v", c)
	}
	if _, err := pc.LoadResult(id); err == nil {
		t.Errorf("detected cell is loadable")
	}
}

// TestTraceLimitSameOnBothCapturePaths pins the per-trace limit to one byte
// count on the capture path that remains, the shared capture published for a
// sibling cell: a limit the trace exactly fits lets the sibling replay, and
// a limit one byte shorter rejects the capture, so the sibling streams.
func TestTraceLimitSameOnBothCapturePaths(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	wls := subset(t, "lbm")
	cfg := BinaryConfig{Name: "plain", Pass: prog.Plain()}
	twin := BinaryConfig{Name: "plain-inorder", Pass: prog.Plain(), InOrder: true}

	w, err := world.Build(world.Spec{Pass: cfg.Pass}, wls[0].Build(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(captureTokenWidth(cfg.Pass), 0)
	w.RunTimedCapture(rec)
	n := int(rec.Bytes())
	rec.Release()

	for _, limit := range []int{n, n - 1} {
		tc := NewTraceCache()
		tc.SetTraceLimit(limit)
		m, err := RunMatrixParallel(ctx, wls, []BinaryConfig{cfg, twin}, 1, ParallelOptions{Workers: 1, TraceCache: tc})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Result(wls[0].Name, cfg.Name).Source; got != "capture" {
			t.Fatalf("limit %d: the first cell ran as %q, want a capture", limit, got)
		}
		want := "stream"
		if limit == n {
			want = "replay"
		}
		if got := m.Result(wls[0].Name, twin.Name).Source; got != want {
			t.Errorf("limit %d bytes for a %d-byte trace: the sibling ran as %q, want %q", limit, n, got, want)
		}
	}
}

// configNamed returns the config called name from cfgs.
func configNamed(t *testing.T, cfgs []BinaryConfig, name string) BinaryConfig {
	t.Helper()
	for _, cfg := range cfgs {
		if cfg.Name == name {
			return cfg
		}
	}
	t.Fatalf("no config named %q", name)
	return BinaryConfig{}
}

// TestResultIdentityGolden pins the result identity's digests to the ones
// every earlier build computed, so a stored result stays addressable by the
// binaries that follow: a respelled identity would leave every store cold.
// The cells cover a default config, a CPU override, a hierarchy override on
// the in-order core, a forced-off libc intercept and a nonzero budget. The
// memoized timing identity a TraceCache uses must give the same digests.
func TestResultIdentityGolden(t *testing.T) {
	tc := NewTraceCache()
	for _, tt := range []struct {
		wl     string
		cfg    BinaryConfig
		scale  int64
		budget uint64
		want   string
	}{
		{"lbm", configNamed(t, Fig7Configs(), "plain"), 3, 0,
			"76b1362c4a4b19b6fa3eec2fa6dcbc75247fdca06a2172a166c05f09e204022e"},
		{"xalanc", configNamed(t, Fig7Configs(), "secure-full"), 3, 0,
			"7e7f9a710d2fc476738bb9efaddabf6a34882df21a91b93a206b5fd61eca5979"},
		{"gcc", configNamed(t, Fig8SensitivityConfigs(), "secure-full+p1"), 3, 0,
			"7b5cd0cedfea44b8b3c9a8468e72b249a310c98abe93bf7e2d465b7b61154436"},
		{"soplex", configNamed(t, Fig8SensitivityConfigs(), "plain+io-l2half"), 3, 0,
			"dfaeb911c550519846fa11bbded817e845260bdc05db74c51469186b9ddae932"},
		{"bzip2", configNamed(t, fig3Configs(), "alloc+stack+checks"), 1, 0,
			"e9570b8dbf183c26147d9e360725ef918ee24ae82adee6a1d848590ef675111d"},
		{"astar", configNamed(t, Fig7Configs(), "asan"), 1, 1000,
			"f5cf286a819cba18f99e624ad74096665483c6d4c2a2d49dd358d705e59794e5"},
	} {
		k := cellTraceKey(tt.wl, tt.cfg, tt.scale, tt.budget)
		if got := resultIdentity(k, timingIdentity(tt.cfg)).String(); got != tt.want {
			t.Errorf("%s %s scale %d budget %d: identity %s, want %s",
				tt.wl, tt.cfg.Name, tt.scale, tt.budget, got, tt.want)
		}
		for round := 0; round < 2; round++ {
			if got := resultIdentity(k, tc.timingID(tt.cfg)).String(); got != tt.want {
				t.Errorf("%s %s through the timing memo (round %d): identity %s, want %s",
					tt.wl, tt.cfg.Name, round, got, tt.want)
			}
		}
	}
}

// jsonTimingIdentity is timingIdentity as encoding/json spelled it: the
// reference appendJSON's reflect walk is held to.
func jsonTimingIdentity(cfg BinaryConfig) string {
	cpuJSON, hierJSON := "default", "default"
	if cfg.CPU != nil {
		raw, _ := json.Marshal(cfg.CPU)
		cpuJSON = string(raw)
	}
	if cfg.Hier != nil {
		raw, _ := json.Marshal(cfg.Hier)
		hierJSON = string(raw)
	}
	return fmt.Sprintf("inorder=%t|cpu=%s|hier=%s", cfg.InOrder, cpuJSON, hierJSON)
}

// TestTimingSpellingMatchesJSON holds timingIdentity to encoding/json's
// spelling on every config of the Fig 7, Fig 8 and fig8sens grids, and on
// the default CPU and hierarchy with each of their fields perturbed in turn.
// The walk over the fields is by reflection, so a field added to either
// config is perturbed too: it must enter the identity, spelled as
// encoding/json spells it, or this test fails.
func TestTimingSpellingMatchesJSON(t *testing.T) {
	t.Parallel()
	check := func(what string, cfg BinaryConfig) string {
		t.Helper()
		got := timingIdentity(cfg)
		if want := jsonTimingIdentity(cfg); got != want {
			t.Errorf("%s: timingIdentity spells\n%s\nencoding/json spells\n%s", what, got, want)
		}
		return got
	}
	overrides := 0
	for _, grid := range []struct {
		name string
		cfgs []BinaryConfig
	}{{"fig7", Fig7Configs()}, {"fig8", Fig8Configs()}, {"fig8sens", Fig8SensitivityConfigs()}} {
		for _, cfg := range grid.cfgs {
			check(grid.name+"/"+cfg.Name, cfg)
			if cfg.CPU != nil || cfg.Hier != nil {
				overrides++
			}
		}
	}
	if overrides == 0 {
		t.Error("the grids hold no CPU or hierarchy override to check")
	}

	c, h := cpu.DefaultConfig(), cache.DefaultHierConfig()
	cfg := BinaryConfig{CPU: &c, Hier: &h}
	base := check("defaults", cfg)
	var perturb func(path string, v reflect.Value)
	perturb = func(path string, v reflect.Value) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				if !f.IsExported() {
					t.Errorf("%s.%s is unexported: encoding/json leaves it out of the timing identity", path, f.Name)
					continue
				}
				perturb(path+"."+f.Name, v.Field(i))
			}
			return
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			v.SetUint(v.Uint() + 1)
		case reflect.String:
			v.SetString(v.String() + "<&>\u2028")
		default:
			t.Errorf("%s is a %s: teach appendJSON and this test to spell it", path, v.Type())
			return
		}
		if check(path, cfg) == base {
			t.Errorf("%s: a changed value leaves the timing identity as it was", path)
		}
		v.Set(old)
	}
	perturb("cpu.Config", reflect.ValueOf(&c).Elem())
	perturb("cache.HierConfig", reflect.ValueOf(&h).Elem())
}

// TestServedCellFootprint is a deterministic memory gate on the warm path:
// with the GC off, it counts the allocations and bytes of cells served from
// a filled result store. A warm sweep allocates too little to reach the
// collector's first goal, so every byte a served cell allocates stays
// resident until the process exits. A served cell's allocations are its
// result's path, what os.Open keeps, the decoded CellResult and the
// RunResult around it; the identity and the read buffer live on the stack,
// and the timing identity is spelled once per config, not per cell.
//
// Measured with Go 1.24: 6 allocations and 616 B per cell for the default
// config and an override alike, against 20 / 2,120 B and 22 / 3,296 B when
// each cell formatted its identity and read its file with os.ReadFile.
func TestServedCellFootprint(t *testing.T) {
	const (
		calls     = 200
		maxAllocs = 8
		maxBytes  = 1024
	)
	wl := subset(t, "lbm")[0]
	cfgs := []BinaryConfig{
		configNamed(t, Fig7Configs(), "plain"),
		configNamed(t, Fig8SensitivityConfigs(), "plain+p1"),
	}
	dir := t.TempDir()
	fillTC, _ := diskTC(t, dir, persist.Options{})
	for _, cfg := range cfgs {
		if _, err := fillTC.run(wl, cfg, 1, CellLimits{}, &group{}); err != nil {
			t.Fatal(err)
		}
	}
	tc, pc := diskTC(t, dir, persist.Options{})
	// A served cell returns before its group is read, so one empty group
	// serves every call and the loop counts none of its allocations.
	g := &group{}
	serve := func(t *testing.T, cfg BinaryConfig) {
		res, err := tc.run(wl, cfg, 1, CellLimits{}, g)
		if err != nil || res.Source != "result-store" {
			t.Fatalf("%s: a cell over a filled store was not served from it (%v)", cfg.Name, err)
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, cfg := range cfgs {
		t.Run(cfg.Name, func(t *testing.T) {
			serve(t, cfg) // the first cell spells the config's timing identity
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				serve(t, cfg)
			}
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / calls
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / calls
			t.Logf("%.1f allocations, %.0f B per served cell (bounds %d, %d B)", allocs, bytes, maxAllocs, maxBytes)
			if allocs > maxAllocs || bytes > maxBytes {
				t.Errorf("a served cell allocated %.1f times, %.0f B, over the %d / %d B bound",
					allocs, bytes, maxAllocs, maxBytes)
			}
		})
	}
	if c := pc.Counters(); c.ResultHits != 2*(calls+1) || c.ResultMisses != 0 || c.Stores != 0 {
		t.Errorf("warm counters %+v, want %d hits and nothing else", c, 2*(calls+1))
	}
}

// TestWarmSweepFootprint is TestServedCellFootprint for a whole sweep: with
// the GC off, it counts what the sensitivity sweep of all twelve workloads
// allocates over a filled store, every cell served from it, through a
// fresh cache, as a new process has one. Such a sweep never reaches the
// collector's first goal either, so all of it stays resident. Beyond its
// served cells, the bound covers the sweep's own machinery: the config
// groups, the outcome slots, the timing identities and the assembled
// matrix.
//
// Measured with Go 1.24 at two workers: 1,580-1,581 allocations and
// 201,528-201,624 B, against 1,574 and 236,848 B when the sweep planned
// its cells into the cache and copied the grid into a slice of cells; the
// bounds are those 1% up.
func TestWarmSweepFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("filling the store takes a full cold sweep")
	}
	const (
		maxAllocs = 1589
		maxBytes  = 239216
	)
	ctx := context.Background()
	wls := workload.All()
	cfgs := Fig8SensitivityConfigs()
	dir := t.TempDir()
	fillTC, _ := diskTC(t, dir, persist.Options{})
	if _, err := RunMatrixParallel(ctx, wls, cfgs, 1, ParallelOptions{TraceCache: fillTC}); err != nil {
		t.Fatal(err)
	}
	tc, pc := diskTC(t, dir, persist.Options{})

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := RunMatrixParallel(ctx, wls, cfgs, 1, ParallelOptions{Workers: 2, TraceCache: tc})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("a warm sweep of %d cells: %d allocations, %d B (bounds %d, %d B)", len(wls)*len(cfgs), allocs, bytes, maxAllocs, maxBytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("a warm sweep allocated %d times, %d B, over the %d / %d B bound", allocs, bytes, maxAllocs, maxBytes)
	}
	if c, cells := pc.Counters(), uint64(len(wls)*len(cfgs)); c.ResultHits != cells || c.ResultMisses != 0 || c.Stores != 0 {
		t.Errorf("warm counters %+v, want %d hits and nothing else", c, cells)
	}
}
