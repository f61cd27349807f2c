package harness

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rest/internal/persist"
	"rest/internal/workload"
)

// The elastic-pool contract: any number of -shard auto workers drain the
// grid exactly once between them (every unit ends with one completion
// marker), a merge — a plain full-grid run over the shared store — is
// byte-identical to a single-process sweep, killed workers are recovered by
// stale-lease steal with zero recomputation of already-published units, and
// a worker that loses a lease mid-unit abandons it without publishing a
// duplicate marker. Every simulated worker process gets a fresh TraceCache
// and Cache; they share one store through the real HTTP server/client pair.

// cacheServer starts the real CacheServer over a shared MemBackend and
// returns its URL: the store every simulated worker process shares.
func cacheServer(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	persist.NewCacheServer(persist.NewMemBackend()).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// httpTC builds a fresh TraceCache + persist.Cache over the HTTP backend —
// one simulated worker process's worth of cache state.
func httpTC(t *testing.T, url string, opt persist.Options) (*TraceCache, *persist.Cache) {
	t.Helper()
	hb, err := persist.NewHTTPBackend(url, persist.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := persist.OpenBackend(hb, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	tc := NewTraceCache()
	tc.AttachDisk(pc)
	return tc, pc
}

// unitCount is the number of steal units a scale-1 grid partitions into.
func unitCount(wls []workload.Workload, cfgs []BinaryConfig) int {
	return len(elasticUnits(gridCells(wls, cfgs), 1, 0))
}

// sensRender runs the full sensitivity sweep and returns the rendered report
// plus the matrix.
func sensRender(t *testing.T, tc *TraceCache, workers int) (string, *Matrix) {
	t.Helper()
	m, err := RunMatrixParallel(context.Background(), subset(t, "lbm"), Fig8SensitivityConfigs(), 1,
		ParallelOptions{Workers: workers, TraceCache: tc})
	if err != nil {
		t.Fatalf("sweep (workers=%d): %v", workers, err)
	}
	return m.RenderOverheadTable("sensitivity") + m.CSV(), m
}

// elasticRender runs one elastic worker over the sensitivity grid and
// returns its stats plus the partial matrix.
func elasticRender(t *testing.T, tc *TraceCache, workers int) (ElasticStats, *Matrix) {
	t.Helper()
	var stats ElasticStats
	m, err := RunMatrixParallel(context.Background(), subset(t, "lbm"), Fig8SensitivityConfigs(), 1,
		ParallelOptions{Workers: workers, TraceCache: tc, Elastic: true,
			OnElastic: func(s ElasticStats) { stats = s }})
	if err != nil {
		t.Fatalf("elastic sweep: %v", err)
	}
	return stats, m
}

// TestElasticNeedsStore pins the precondition: the pool coordinates through
// the shared store, so Elastic without one is a configuration error, not a
// silent fallback.
func TestElasticNeedsStore(t *testing.T) {
	t.Parallel()
	_, err := RunMatrixParallel(context.Background(), subset(t, "lbm"), Fig8SensitivityConfigs()[:1], 1,
		ParallelOptions{Elastic: true})
	if err == nil || !strings.Contains(err.Error(), "shared store") {
		t.Fatalf("elastic without a store: %v", err)
	}
	_, err = RunMatrixParallel(context.Background(), subset(t, "lbm"), Fig8SensitivityConfigs()[:1], 1,
		ParallelOptions{Elastic: true, TraceCache: NewTraceCache()})
	if err == nil || !strings.Contains(err.Error(), "shared store") {
		t.Fatalf("elastic without a disk tier: %v", err)
	}
}

// TestElasticSoloDrain pins the one-worker pool: it claims every unit
// fresh, computes the whole grid, publishes one marker per unit, and a
// merge run over the store is byte-identical to the no-cache baseline.
func TestElasticSoloDrain(t *testing.T) {
	t.Parallel()
	baseline, _ := sensRender(t, NewTraceCache(), 1)
	url := cacheServer(t)

	tc, pc := httpTC(t, url, persist.Options{})
	stats, m := elasticRender(t, tc, 2)
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	units := unitCount(wls, cfgs)
	if stats.Units != units || stats.Done != units || stats.Claimed != units {
		t.Fatalf("solo pool did not drain cleanly: %+v (units %d)", stats, units)
	}
	if stats.Steals != 0 || stats.LeaseLost != 0 || stats.Skipped != 0 {
		t.Fatalf("solo pool saw contention out of nowhere: %+v", stats)
	}
	if stats.CellsRun != len(wls)*len(cfgs) {
		t.Fatalf("solo pool ran %d cells, want %d", stats.CellsRun, len(wls)*len(cfgs))
	}
	cells := 0
	for _, wl := range m.Workloads {
		cells += len(m.Cycles[wl])
	}
	if cells != len(wls)*len(cfgs) {
		t.Fatalf("solo matrix holds %d cells, want the full grid", cells)
	}
	markers, err := pc.ListMarkers(elasticMarkerPrefix)
	if err != nil || len(markers) != units {
		t.Fatalf("markers after drain: %v, %v (want %d)", markers, err, units)
	}

	tcM, _ := httpTC(t, url, persist.Options{})
	merged, _ := sensRender(t, tcM, 4)
	if merged != baseline {
		t.Fatalf("elastic merge differs from single-process baseline")
	}
}

// TestElasticPoolMergeByteIdentity is the multi-worker differential: three
// simulated worker processes (fresh TraceCache + Cache each, one shared
// HTTP store) drain the pool concurrently; between them every unit is done
// exactly once, and the merge is byte-identical to the baseline.
func TestElasticPoolMergeByteIdentity(t *testing.T) {
	t.Parallel()
	baseline, _ := sensRender(t, NewTraceCache(), 1)
	url := cacheServer(t)

	const pool = 3
	stats := make([]ElasticStats, pool)
	var wg sync.WaitGroup
	for i := 0; i < pool; i++ {
		tc, _ := httpTC(t, url, persist.Options{})
		wg.Add(1)
		go func(i int, tc *TraceCache) {
			defer wg.Done()
			stats[i], _ = elasticRender(t, tc, 1)
		}(i, tc)
	}
	wg.Wait()

	units := unitCount(subset(t, "lbm"), Fig8SensitivityConfigs())
	done, claimed := 0, 0
	for _, s := range stats {
		done += s.Done
		claimed += s.Claimed
		if s.Units != units {
			t.Fatalf("worker disagreed on the unit count: %+v", s)
		}
	}
	// Exactly-once: markers are published under an exclusive claim, so the
	// pool-wide done tally is the unit count, not a multiple of it.
	if done != units {
		t.Fatalf("pool published %d completions for %d units: %+v", done, units, stats)
	}
	if claimed < units {
		t.Fatalf("pool claimed %d of %d units", claimed, units)
	}

	tcM, pcM := httpTC(t, url, persist.Options{})
	merged, _ := sensRender(t, tcM, 4)
	if merged != baseline {
		t.Fatalf("pool merge differs from single-process baseline")
	}
	// The merge is pure reads: every cell a result hit, one wire GET each.
	cells := uint64(len(subset(t, "lbm")) * len(Fig8SensitivityConfigs()))
	if c := pcM.Counters(); c.ResultHits != cells || c.ResultMisses != 0 || c.Stores != 0 {
		t.Fatalf("merge over the drained pool: %+v, want %d result hits and nothing else", c, cells)
	}
	if hc, _ := pcM.HTTPCounters(); hc.Gets != cells || hc.Puts != 0 {
		t.Fatalf("merge wire traffic: %+v, want %d gets and no put", hc, cells)
	}
}

// TestElasticMergeFig3 runs the pool differential for the Figure 3 report:
// two workers drain the Fig3 grid through one store, and a merge renders
// the single-process report from the result tier.
func TestElasticMergeFig3(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm")
	base, err := RunFig3Parallel(context.Background(), wls, 1, ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	url := cacheServer(t)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		tc, _ := httpTC(t, url, persist.Options{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunFig3Parallel(context.Background(), wls, 1,
				ParallelOptions{Workers: 1, TraceCache: tc, Elastic: true}); err != nil {
				t.Errorf("worker %d: %v", k, err)
			}
		}()
	}
	wg.Wait()

	tc, pc := httpTC(t, url, persist.Options{})
	merged, err := RunFig3Parallel(context.Background(), wls, 1,
		ParallelOptions{Workers: 4, TraceCache: tc})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Render() != base.Render() {
		t.Fatalf("merged Fig3 report differs from single-process baseline")
	}
	if c := pc.Counters(); c.ResultHits == 0 {
		t.Fatalf("Fig3 merge was not served from the shared store: %+v", c)
	}
}

// TestElasticSecondRunRecomputesNothing pins the published-unit guarantee
// from the ISSUE's acceptance gate: a unit whose marker is up is never
// recomputed. A second elastic pass over a drained store claims nothing and
// runs zero cells — the initial marker scan already accounts for the grid.
func TestElasticSecondRunRecomputesNothing(t *testing.T) {
	t.Parallel()
	url := cacheServer(t)
	tc1, _ := httpTC(t, url, persist.Options{})
	elasticRender(t, tc1, 2)

	tc2, pc2 := httpTC(t, url, persist.Options{})
	stats, m := elasticRender(t, tc2, 2)
	if stats.CellsRun != 0 || stats.Done != 0 {
		t.Fatalf("second pass recomputed published units: %+v", stats)
	}
	if len(m.Workloads) != 0 {
		t.Fatalf("second pass produced cells: %+v", m.Workloads)
	}
	if c := pc2.Counters(); c.Stores != 0 {
		t.Fatalf("second pass grew the store: %+v", c)
	}
}

// TestElasticKilledWorkerSteal pins recovery: a worker that died holding a
// unit claim (the lease is on the books, never renewed) is stolen once
// stale, and the pool still drains the full grid with that unit computed by
// the survivor.
func TestElasticKilledWorkerSteal(t *testing.T) {
	t.Parallel()
	url := cacheServer(t)

	cells := gridCells(subset(t, "lbm"), Fig8SensitivityConfigs())
	units := elasticUnits(cells, 1, 0)
	grid := elasticGridID(units, cells, 1)

	// The dead worker: holds unit 0's claim, renews nothing, publishes
	// nothing.
	dead, err := persist.NewHTTPBackend(url, persist.HTTPOptions{RenewEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := dead.TryLease(elasticClaimName(grid, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	time.Sleep(60 * time.Millisecond)

	tc, _ := httpTC(t, url, persist.Options{StaleLockAge: 50 * time.Millisecond})
	stats, _ := elasticRender(t, tc, 2)
	if stats.Done != len(units) {
		t.Fatalf("survivor did not drain the grid: %+v", stats)
	}
	if stats.Steals == 0 {
		t.Fatalf("dead worker's claim was never stolen: %+v", stats)
	}
}

// TestElasticLeaseLostAbandons pins the renewal race from the other side: a
// worker that loses its lease mid-unit (it was presumed dead but wasn't)
// must abandon the unit — no completion marker, no overwrite of the
// thief's — while the rest of its pool run proceeds normally. The steal is
// injected deterministically from the first cell's completion hook, so no
// clocks or sleeps decide the outcome.
func TestElasticLeaseLostAbandons(t *testing.T) {
	t.Parallel()
	url := cacheServer(t)

	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	cells := gridCells(wls, cfgs)
	units := elasticUnits(cells, 1, 0)
	grid := elasticGridID(units, cells, 1)

	thief, err := persist.NewHTTPBackend(url, persist.HTTPOptions{RenewEvery: -1})
	if err != nil {
		t.Fatal(err)
	}

	// The victim: lease auto-renewal off, so the steal goes unnoticed until
	// the pre-publish synchronous renewal — the exact race under test.
	vb, err := persist.NewHTTPBackend(url, persist.HTTPOptions{RenewEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	vpc, err := persist.OpenBackend(vb, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vpc.Close() })
	vtc := NewTraceCache()
	vtc.AttachDisk(vpc)

	const thiefMarker = `{"worker":"thief"}`
	var once sync.Once
	var stolenUnit int
	var stats ElasticStats
	m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 1, TraceCache: vtc, Elastic: true,
			OnElastic: func(s ElasticStats) { stats = s },
			OnCell: func(ev CellEvent) {
				once.Do(func() {
					// Mid-unit, after the victim's first cell: a peer judges the
					// victim dead, breaks its lease, takes the unit over and
					// publishes its own completion marker.
					for ui, u := range units {
						for _, gi := range u.cells {
							if gi == ev.Index {
								stolenUnit = ui
							}
						}
					}
					name := elasticClaimName(grid, stolenUnit)
					if err := thief.BreakLock(name); err != nil {
						t.Errorf("thief break: %v", err)
					}
					l, err := thief.TryLease(name)
					if err != nil {
						t.Errorf("thief lease: %v", err)
						return
					}
					if err := thief.Put("meta", elasticMarkerName(grid, stolenUnit), []byte(thiefMarker)); err != nil {
						t.Errorf("thief marker: %v", err)
					}
					l.Release()
				})
			}})
	if err != nil {
		t.Fatalf("victim's pool run failed outright: %v", err)
	}
	if stats.LeaseLost != 1 {
		t.Fatalf("victim did not record the dispossession: %+v", stats)
	}
	if stats.Done != len(units)-1 {
		t.Fatalf("victim published %d of %d units despite losing one: %+v", stats.Done, len(units), stats)
	}
	// The thief's marker survives: the victim abandoned instead of
	// publishing a duplicate.
	raw, err := vpc.GetMarker(elasticMarkerName(grid, stolenUnit))
	if err != nil || string(raw) != thiefMarker {
		t.Fatalf("stolen unit's marker: %q, %v (want the thief's)", raw, err)
	}
	// The victim's own cells — including the stolen unit's, all computed
	// before the loss was observable — stay internally consistent, and a
	// merge over the store is still byte-identical to the baseline: the
	// duplicate compute was idempotent.
	if len(m.Workloads) == 0 {
		t.Fatalf("victim's partial matrix is empty")
	}
	baseline, _ := sensRender(t, NewTraceCache(), 1)
	tcM, _ := httpTC(t, url, persist.Options{})
	merged, _ := sensRender(t, tcM, 4)
	if merged != baseline {
		t.Fatalf("merge after the race differs from the baseline")
	}
}

// TestElasticChaosDrains pins the fault posture over the pool: with the
// storage fault plane injecting errors around every cache op, the pool
// still drains (fail-open claims at worst duplicate compute) and the merge
// stays byte-identical.
func TestElasticChaosDrains(t *testing.T) {
	t.Parallel()
	baseline, _ := sensRender(t, NewTraceCache(), 1)
	url := cacheServer(t)

	spec, err := persist.ParseChaosSpec("seed=11,err=0.15,torn=0.05")
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := httpTC(t, url, persist.Options{Chaos: spec, Retries: 1})
	if _, err := RunMatrixParallel(context.Background(), subset(t, "lbm"), Fig8SensitivityConfigs(), 1,
		ParallelOptions{Workers: 2, TraceCache: tc, Elastic: true}); err != nil {
		t.Fatalf("elastic under chaos: %v", err)
	}

	tcM, _ := httpTC(t, url, persist.Options{})
	merged, _ := sensRender(t, tcM, 4)
	if merged != baseline {
		t.Fatalf("chaos-elastic merge differs from the baseline")
	}
}

// TestElasticObsCounters pins the pool's observability surface: a metrics
// run exports the harness.elastic.* scheduling counters, and its cells
// still publish their results, so a plain sweep over its store is all
// result hits.
func TestElasticObsCounters(t *testing.T) {
	t.Parallel()
	url := cacheServer(t)
	tc, _ := httpTC(t, url, persist.Options{})
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 2, TraceCache: tc, Elastic: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	units := uint64(unitCount(wls, cfgs))
	want := map[string]uint64{
		"harness.elastic.units":       units,
		"harness.elastic.claimed":     units,
		"harness.elastic.done":        units,
		"harness.elastic.steals":      0,
		"harness.elastic.lease_lost":  0,
		"harness.elastic.cells":       uint64(len(wls) * len(cfgs)),
		"harness.elastic.cells_total": uint64(len(wls) * len(cfgs)),
	}
	got := map[string]uint64{}
	for _, mt := range m.Obs.Snapshot() {
		got[mt.Name] = mt.Value
	}
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("%s = %d (present=%t), want %d", name, g, ok, v)
		}
	}

	tcM, pcM := httpTC(t, url, persist.Options{})
	sensRender(t, tcM, 2)
	if c, cells := pcM.Counters(), uint64(len(wls)*len(cfgs)); c.ResultHits != cells || c.ResultMisses != 0 {
		t.Errorf("plain sweep over the metrics pool's store: %+v, want %d result hits", c, cells)
	}
}

// TestElasticUnitNumbering pins the unit enumeration against the static
// partition: first-appearance order over the grid, every cell in exactly
// one unit, and the grid ID scoping claims to one exact sweep.
func TestElasticUnitNumbering(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm")
	cfgs := Fig8SensitivityConfigs()
	cells := gridCells(wls, cfgs)
	units := elasticUnits(cells, 1, 0)
	if len(units) == 0 || len(units) >= len(wls)*len(cfgs) {
		t.Fatalf("degenerate unit partition: %d units over %d cells", len(units), len(wls)*len(cfgs))
	}
	seen := map[int]bool{}
	prevFirst := -1
	for ui, u := range units {
		if len(u.cells) == 0 {
			t.Fatalf("unit %d has no cells", ui)
		}
		if u.cells[0] <= prevFirst {
			t.Fatalf("units not in first-appearance order: unit %d starts at cell %d after %d", ui, u.cells[0], prevFirst)
		}
		prevFirst = u.cells[0]
		for _, gi := range u.cells {
			if seen[gi] {
				t.Fatalf("cell %d in two units", gi)
			}
			seen[gi] = true
		}
	}
	if len(seen) != len(wls)*len(cfgs) {
		t.Fatalf("units cover %d of %d cells", len(seen), len(wls)*len(cfgs))
	}
	if elasticGridID(units, cells, 1) == elasticGridID(units[:len(units)-1], cells, 1) {
		t.Fatalf("grid ID insensitive to the unit list")
	}
	if elasticGridID(units, cells, 1) != elasticGridID(units, cells, 1) {
		t.Fatalf("grid ID not deterministic")
	}
}

// TestElasticGridIDCoversTimingRows pins the grid scope against grids that
// differ only in timing rows: the first two sensitivity configs and the
// full sensitivity grid share every functional identity. Draining the small
// grid must not mark the full grid's units done — the full pool claims every
// unit, runs every cell, and serves only the small grid's two published
// cells from the result store.
func TestElasticGridIDCoversTimingRows(t *testing.T) {
	t.Parallel()
	url := cacheServer(t)
	wls := subset(t, "lbm")
	small, full := Fig8SensitivityConfigs()[:2], Fig8SensitivityConfigs()
	if unitCount(wls, small) != unitCount(wls, full) {
		t.Fatalf("premise: the two grids must share their units")
	}
	pool := func(cfgs []BinaryConfig) (ElasticStats, map[string]int) {
		tc, _ := httpTC(t, url, persist.Options{})
		var stats ElasticStats
		var mu sync.Mutex
		sources := map[string]int{}
		if _, err := RunMatrixParallel(context.Background(), wls, cfgs, 1, ParallelOptions{
			Workers: 2, TraceCache: tc, Elastic: true,
			OnElastic: func(s ElasticStats) { stats = s },
			OnCell: func(ev CellEvent) {
				mu.Lock()
				sources[ev.Source]++
				mu.Unlock()
			},
		}); err != nil {
			t.Fatalf("elastic sweep over %d configs: %v", len(cfgs), err)
		}
		return stats, sources
	}
	pool(small)
	stats, sources := pool(full)
	if cells := len(wls) * len(full); stats.Claimed != stats.Units || stats.CellsRun != cells {
		t.Fatalf("full pool after the small one: %+v, want all %d units claimed and %d cells run",
			stats, stats.Units, cells)
	}
	if sources["result-store"] != len(small) {
		t.Fatalf("full pool sources %v, want %d result-store hits", sources, len(small))
	}
}

// TestElasticCancellation pins the deadline story: a cancelled pool returns
// promptly (empty matrix or skipped holes) instead of hanging on the drain
// loop waiting for markers that will never land.
func TestElasticCancellation(t *testing.T) {
	t.Parallel()
	url := cacheServer(t)
	tc, _ := httpTC(t, url, persist.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunMatrixParallel(ctx, subset(t, "lbm"), Fig8SensitivityConfigs(), 1,
		ParallelOptions{Workers: 2, TraceCache: tc, Elastic: true})
	var merr *MatrixError
	if err != nil && !errors.As(err, &merr) {
		t.Fatalf("cancelled pool: %v", err)
	}
}
