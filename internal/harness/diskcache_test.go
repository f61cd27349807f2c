package harness

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

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

// The persistent-cache differential: a sweep served from disk — whether from
// the trace store (replay) or the result store (pure memoization) — must be
// indistinguishable from a cold or cache-off sweep: identical cpu.Stats,
// byte-identical reports, at any worker count. Corruption anywhere degrades
// to recompute, never to a wrong answer or a crash.

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

// TestDiskCacheCellDifferential proves bit-exactness of both disk tiers,
// cell by cell, across the full Figure 7 + Figure 8 config matrix: a cell
// replayed from the on-disk trace store and a cell served from the result
// store both equal the streamed reference exactly.
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
				one := []workload.Workload{wl}
				pair := []BinaryConfig{cfg}

				streamed, err := RunLimited(wl, cfg, 1, CellLimits{})
				if err != nil {
					t.Fatalf("streamed run: %v", err)
				}

				// Cold: an unshared (bypass-role) cell captures to disk.
				tcCold, pcCold := diskTC(t, dir, persist.Options{})
				tcCold.Plan(one, pair, 1, 0)
				cold, err := RunCached(wl, cfg, 1, CellLimits{}, tcCold)
				if err != nil {
					t.Fatalf("cold run: %v", err)
				}
				assertCellEqual(t, streamed, cold)
				if c := pcCold.Counters(); c.Stores == 0 {
					t.Fatalf("cold run stored nothing: %+v", c)
				}

				// Warm, trace tier: NeedWorld keeps the result store out, so
				// the cell must replay the stored capture.
				tcTrace, pcTrace := diskTC(t, dir, persist.Options{})
				tcTrace.Plan(one, pair, 1, 0)
				viaTrace, err := RunCached(wl, cfg, 1, CellLimits{NeedWorld: true}, tcTrace)
				if err != nil {
					t.Fatalf("warm trace-tier run: %v", err)
				}
				assertCellEqual(t, streamed, viaTrace)
				if viaTrace.World == nil {
					t.Errorf("NeedWorld cell came back without a world")
				}
				if c := pcTrace.Counters(); c.TraceHits != 1 {
					t.Errorf("trace tier not exercised: %+v", c)
				}

				// Warm, result tier: the cell's stats come straight off disk.
				tcRes, pcRes := diskTC(t, dir, persist.Options{})
				tcRes.Plan(one, pair, 1, 0)
				viaResult, err := RunCached(wl, cfg, 1, CellLimits{}, tcRes)
				if err != nil {
					t.Fatalf("warm result-tier run: %v", err)
				}
				if c := pcRes.Counters(); c.ResultHits != 1 {
					t.Errorf("result tier not exercised: %+v", c)
				}
				if viaResult.Cycles != streamed.Cycles ||
					!reflect.DeepEqual(viaResult.Stats, streamed.Stats) ||
					viaResult.Outcome.Checksum != streamed.Outcome.Checksum {
					t.Errorf("result tier diverges:\nstreamed: %+v\nresult:   %+v",
						streamed.Stats, viaResult.Stats)
				}
				// The result tier must also have drained the plan.
				tcRes.mu.Lock()
				planned, entries := len(tcRes.plan), len(tcRes.entries)
				tcRes.mu.Unlock()
				if planned != 0 || entries != 0 {
					t.Errorf("result hit leaked plan state: %d keys, %d entries", planned, entries)
				}
			})
		}
	}
}

// TestDiskCacheSweepDifferential pins the report contract: the sensitivity
// sweep renders byte-identical tables and CSVs cold, warm and with the
// persistent cache off, at -j 1 and -j 4, and every warm cell's stats equal
// the cache-off cell's exactly.
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
	for name, r := range map[string]rendering{"warm-j4": warm, "warm-j1": warmJ1, "off": off} {
		if r.table != cold.table || r.csv != cold.csv {
			t.Errorf("%s report diverges from cold:\ncold: %s\n%s:  %s", name, cold.table, name, r.table)
		}
	}
	for _, wl := range off.m.Workloads {
		for _, c := range off.m.Configs {
			got, want := warm.m.Results[wl][c], off.m.Results[wl][c]
			if got == nil || want == nil {
				t.Fatalf("%s/%s missing from a sweep", wl, c)
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Errorf("%s/%s stats diverge warm vs off:\nwarm: %+v\noff:  %+v", wl, c, got.Stats, want.Stats)
			}
		}
	}
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

	// Flip one bit in every stored artifact.
	damaged := 0
	for _, sub := range []string{"traces", "results"} {
		files, err := filepath.Glob(filepath.Join(dir, sub, "*"))
		if err != nil {
			t.Fatal(err)
		}
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
// mid-sweep leaves partial artifacts and an abandoned capture lock; a rerun
// over the same store completes from the partial artifacts (served cells are
// result hits), recomputes only what is missing, and takes over the
// abandoned lock once it is stale — the store ends up with exactly the full
// artifact set, no duplicates. The rerun's metric export carries the
// lock-plane counters.
func TestKilledLeaderRecovery(t *testing.T) {
	t.Parallel()
	mb := persist.NewMemBackend()
	opt := persist.Options{StaleLockAge: 50 * time.Millisecond, LockWait: 2 * time.Second}

	pc1, err := persist.OpenBackend(mb, opt)
	if err != nil {
		t.Fatal(err)
	}
	tc1 := NewTraceCache()
	tc1.AttachDisk(pc1)
	first, _ := sensRender(t, tc1, 1)
	full := mb.Len("result")

	// The "kill": the dead process was mid-capture on its first cell, so that
	// cell's result and trace artifacts never landed and the capture lock it
	// held was abandoned. Every other artifact survives.
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	k0 := cellTraceKey(wls[0].Name, cfgs[0], 1, 0)
	if err := mb.Delete("result", resultIdentity(k0, cfgs[0]).String()); err != nil {
		t.Fatal(err)
	}
	fid := funcIdentity(k0)
	if err := mb.Delete("trace", fid.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.TryLock(fid.String()); err != nil {
		t.Fatal(err) // deliberately never released: the dead process's lock
	}
	time.Sleep(60 * time.Millisecond) // let the abandoned lock go stale

	pc2, err := persist.OpenBackend(mb, opt)
	if err != nil {
		t.Fatal(err)
	}
	tc2 := NewTraceCache()
	tc2.AttachDisk(pc2)
	rerun, _ := sensRender(t, tc2, 1)
	if rerun != first {
		t.Fatalf("rerun after kill rendered differently")
	}
	c := pc2.Counters()
	if c.ResultHits == 0 {
		t.Fatalf("rerun ignored the surviving artifacts: %+v", c)
	}
	if c.Stores == 0 {
		t.Fatalf("rerun recomputed nothing despite missing artifacts: %+v", c)
	}
	if got := mb.Len("result"); got != full {
		t.Fatalf("store not restored to the full artifact set: %d vs %d", got, full)
	}
	if _, err := mb.LockAge(fid.String()); err == nil {
		t.Fatalf("abandoned capture lock still held after takeover")
	}
	reg := newTestRegistry(t, tc2)
	for _, name := range []string{"persist.lock.contended", "persist.lock.waits", "persist.lock.wait_ns"} {
		if _, ok := reg[name]; !ok {
			t.Errorf("recordDiskObs missing %s", name)
		}
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
// their live worlds and therefore must bypass the result store — cold and
// warm, asserting identical renderings with the warm run served by the trace
// store.
func TestDiskCacheMicroStats(t *testing.T) {
	t.Parallel()
	wl, err := workload.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()

	coldTC, _ := diskTC(t, dir, persist.Options{})
	cold, err := RunMicroStatsParallel(ctx, wl, 1, ParallelOptions{TraceCache: coldTC})
	if err != nil {
		t.Fatalf("cold micro stats: %v", err)
	}
	warmTC, warmPC := diskTC(t, dir, persist.Options{})
	warm, err := RunMicroStatsParallel(ctx, wl, 1, ParallelOptions{TraceCache: warmTC})
	if err != nil {
		t.Fatalf("warm micro stats: %v", err)
	}
	if cold.Render() != warm.Render() {
		t.Errorf("micro stats diverge:\ncold: %s\nwarm: %s", cold.Render(), warm.Render())
	}
	if c := warmPC.Counters(); c.TraceHits == 0 || c.ResultHits != 0 {
		t.Errorf("micro-stats cells should replay traces, never load results: %+v", c)
	}
}

// TestDiskCacheMetricsBypass pins the metrics determinism story: cells with
// metric registries never touch the disk (functional registries are not
// persisted), so a metrics sweep renders identical metrics cold and warm.
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

	coldTC, coldPC := diskTC(t, dir, persist.Options{})
	cold := metricsCSV(coldTC)
	if c := coldPC.Counters(); c.Stores != 0 || c.TraceMisses != 0 || c.ResultMisses != 0 {
		t.Errorf("metrics cells touched the disk cache: %+v", c)
	}
	warmTC, _ := diskTC(t, dir, persist.Options{})
	warm := metricsCSV(warmTC)
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

// TestTraceLimitSameOnBothCapturePaths pins the per-trace limit to one entry
// count for both kinds of capture that reach the store: a disk-only capture,
// which nothing in the process replays, and a shared capture, which is also
// published for a sibling cell. Both record into a Recorder under the limit;
// each stores a trace that exactly fits it and nothing for a limit one entry
// shorter, so the store receives the same traces whichever captured them.
func TestTraceLimitSameOnBothCapturePaths(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	wls := subset(t, "lbm")
	cfg := BinaryConfig{Name: "plain", Pass: prog.Plain()}
	twin := BinaryConfig{Name: "plain-inorder", Pass: prog.Plain(), InOrder: true}
	fid := funcIdentity(cellTraceKey(wls[0].Name, cfg, 1, 0))

	tc, pc := diskTC(t, t.TempDir(), persist.Options{})
	if _, err := RunMatrixParallel(ctx, wls, []BinaryConfig{cfg}, 1, ParallelOptions{Workers: 1, TraceCache: tc}); err != nil {
		t.Fatal(err)
	}
	rec, _, err := pc.LoadTrace(fid)
	if err != nil {
		t.Fatalf("unlimited capture stored no trace: %v", err)
	}
	n := rec.Len()
	rec.Release()

	for _, shared := range []bool{false, true} {
		cfgs := []BinaryConfig{cfg}
		if shared {
			cfgs = append(cfgs, twin)
		}
		for _, limit := range []int{n, n - 1} {
			tc, pc := diskTC(t, t.TempDir(), persist.Options{})
			tc.SetTraceLimit(limit)
			m, err := RunMatrixParallel(ctx, wls, cfgs, 1, ParallelOptions{Workers: 1, TraceCache: tc})
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Results[wls[0].Name][cfg.Name].Source; got != "capture" {
				t.Fatalf("shared=%t: the first cell ran as %q, want a capture", shared, got)
			}
			got, _, err := pc.LoadTrace(fid)
			if stored := err == nil; stored != (limit == n) {
				t.Errorf("shared=%t, limit %d entries for a %d-entry trace: stored=%t (%v)", shared, limit, n, stored, err)
			}
			if got != nil {
				got.Release()
			}
		}
	}
}
