package harness

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"rest/internal/attack"
	"rest/internal/cache"
	"rest/internal/core"
	"rest/internal/prog"
	"rest/internal/trace"
	"rest/internal/workload"
	"rest/internal/world"
)

// The replay differential: a cell run by replaying a captured trace through
// its timing model must be indistinguishable from the cell run by streaming
// the functional simulator — identical cpu.Stats, identical Outcome,
// byte-identical sweep reports. These tests are the correctness gate for the
// trace cache; every comparison is exact, never approximate.

// assertCellEqual compares a replayed cell against its streamed reference.
func assertCellEqual(t *testing.T, streamed, replayed *RunResult) {
	t.Helper()
	if !reflect.DeepEqual(streamed.Stats, replayed.Stats) {
		t.Errorf("stats diverge:\nstreamed: %+v\nreplayed: %+v", streamed.Stats, replayed.Stats)
	}
	if streamed.Outcome.Checksum != replayed.Outcome.Checksum {
		t.Errorf("checksum diverges: streamed=%#x replayed=%#x",
			streamed.Outcome.Checksum, replayed.Outcome.Checksum)
	}
	if (streamed.Outcome.Exception == nil) != (replayed.Outcome.Exception == nil) ||
		(streamed.Outcome.Violation == nil) != (replayed.Outcome.Violation == nil) ||
		(streamed.Outcome.Err == nil) != (replayed.Outcome.Err == nil) {
		t.Errorf("outcome shape diverges: streamed=%s replayed=%s",
			streamed.Outcome, replayed.Outcome)
	}
	switch {
	case streamed.Obs == nil && replayed.Obs == nil:
	case streamed.Obs == nil || replayed.Obs == nil:
		t.Errorf("metrics presence diverges")
	case !reflect.DeepEqual(streamed.Obs.Snapshot(), replayed.Obs.Snapshot()):
		t.Errorf("metrics diverge:\nstreamed: %+v\nreplayed: %+v",
			streamed.Obs.Snapshot(), replayed.Obs.Snapshot())
	}
}

// replayMatrixConfigs is every Figure 7 + Figure 8 bar: the full BinaryConfig
// matrix the tentpole's acceptance criterion names.
func replayMatrixConfigs() []BinaryConfig {
	return append(Fig7Configs(), Fig8Configs()...)
}

// runAsGroup runs cfgs through tc as one group of wl's cells, the way a
// sweep's worker runs one functional identity's cells: the first captures
// and the rest replay its capture.
func runAsGroup(t *testing.T, tc *TraceCache, wl workload.Workload, cfgs []BinaryConfig, lim CellLimits) []*RunResult {
	t.Helper()
	var g group
	out := make([]*RunResult, len(cfgs))
	for i, cfg := range cfgs {
		g.more = i < len(cfgs)-1
		res, err := tc.run(wl, cfg, 1, lim, &g)
		if err != nil {
			t.Fatalf("%s run %d of the group: %v", cfg.Name, i, err)
		}
		out[i] = res
	}
	return out
}

// TestReplayDifferentialMatrix runs every (workload, config) cell of the full
// matrix twice as one group through a trace cache — once as the capturing
// cell, once as a replaying sibling — and compares both against an uncached
// streamed run, metrics included. Under -short or the race detector a
// three-workload subset runs.
func TestReplayDifferentialMatrix(t *testing.T) {
	t.Parallel()
	wls := workload.All()
	if testing.Short() || raceEnabled {
		wls = subset(t, "lbm", "xalanc", "hmmer")
	}
	cfgs := replayMatrixConfigs()
	for _, wl := range wls {
		for _, cfg := range cfgs {
			wl, cfg := wl, cfg
			t.Run(wl.Name+"/"+cfg.Name, func(t *testing.T) {
				t.Parallel()
				lim := CellLimits{Metrics: true}
				tc := NewTraceCache()
				runs := runAsGroup(t, tc, wl, []BinaryConfig{cfg, cfg}, lim)
				captured, replayed := runs[0], runs[1]
				if hits, misses, _ := tc.Counters(); hits != 1 || misses != 1 {
					t.Fatalf("cache roles wrong: hits=%d misses=%d (want 1 capture + 1 replay)", hits, misses)
				}
				streamed, err := runStreamed(wl, cfg, 1, lim, nil)
				if err != nil {
					t.Fatalf("streamed run: %v", err)
				}
				assertCellEqual(t, streamed, captured)
				assertCellEqual(t, streamed, replayed)
			})
		}
	}
}

// TestReplayCrossTimingDifferential is the sweep the cache exists for: the
// Figure 8 sensitivity grid, where one captured stream is replayed under
// different CPU configs, cache hierarchies and the in-order core. Its two
// builds run as two groups, as a sweep forms them. Every replayed cell must
// equal its own streamed run bit-for-bit even though its timing model
// differs from the capturing cell's.
func TestReplayCrossTimingDifferential(t *testing.T) {
	t.Parallel()
	wls := workload.All()
	if testing.Short() || raceEnabled {
		wls = subset(t, "lbm", "sjeng", "soplex")
	}
	cfgs := Fig8SensitivityConfigs()
	for _, wl := range wls {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			tc := NewTraceCache()
			for _, idx := range configGroups(cfgs, 1, 0, true) {
				members := make([]BinaryConfig, len(idx))
				for i, c := range idx {
					members[i] = cfgs[c]
				}
				for i, cached := range runAsGroup(t, tc, wl, members, CellLimits{}) {
					streamed, err := runStreamed(wl, members[i], 1, CellLimits{}, nil)
					if err != nil {
						t.Fatalf("%s streamed: %v", members[i].Name, err)
					}
					assertCellEqual(t, streamed, cached)
				}
			}
			hits, misses, bypass := tc.Counters()
			wantHits := uint64(len(cfgs) - 2)
			if misses != 2 || hits != wantHits || bypass != 0 {
				t.Errorf("sharing wrong: hits=%d misses=%d bypass=%d (want 2 captures, %d replays)",
					hits, misses, bypass, wantHits)
			}
		})
	}
}

// TestReplayAttackSuite captures each §V attack's trace — these runs end in
// exceptions and violations, the traces the batch-lookahead token shadow must
// get right to the last entry — and replays it through an identically
// configured timing model, asserting identical stats and outcome.
func TestReplayAttackSuite(t *testing.T) {
	t.Parallel()
	cfgs := []BinaryConfig{
		{Name: "secure-full", Pass: prog.RESTFull(64), Mode: core.Secure},
		{Name: "debug-full", Pass: prog.RESTFull(64), Mode: core.Debug},
		{Name: "secure-heap", Pass: prog.RESTHeap(64), Mode: core.Secure},
		{Name: "asan", Pass: prog.ASanFull()},
	}
	for _, a := range attack.All() {
		for _, cfg := range cfgs {
			a, cfg := a, cfg
			t.Run(a.Name+"/"+cfg.Name, func(t *testing.T) {
				t.Parallel()
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

				rp := rec.Replayer()
				var tokens cache.TokenSource
				if rec.TokenWidth() != 0 {
					tokens = rp
				}
				rw, err := world.BuildReplay(spec, tokens)
				if err != nil {
					t.Fatalf("world.BuildReplay: %v", err)
				}
				gotStats, gotOut := rw.ReplayTimed(rp, wantOut)
				if !reflect.DeepEqual(wantStats, gotStats) {
					t.Errorf("stats diverge:\nstreamed: %+v\nreplayed: %+v", wantStats, gotStats)
				}
				if wantOut.String() != gotOut.String() {
					t.Errorf("outcome diverges: streamed=%s replayed=%s", wantOut, gotOut)
				}
				if wantOut.Exception != nil {
					we, ge := wantOut.Exception, gotOut.Exception
					if ge == nil || we.Kind != ge.Kind || we.Addr != ge.Addr || we.PC != ge.PC ||
						we.Precise != ge.Precise || we.DetectLagCycles != ge.DetectLagCycles {
						t.Errorf("exception diverges: streamed=%+v replayed=%+v", we, ge)
					}
				}
			})
		}
	}
}

// TestSweepDeterminismWithTraceCache pins the tentpole's report contract:
// the sensitivity sweep renders byte-identical tables, CSVs and metrics at
// any worker count with the cache on, and identical tables/CSVs with it off
// (cache counters aside, which only exist on the cached run).
func TestSweepDeterminismWithTraceCache(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm", "sjeng", "xalanc")
	cfgs := Fig8SensitivityConfigs()
	ctx := context.Background()

	type rendering struct {
		table, csv, metrics string
	}
	render := func(tcache *TraceCache, workers int) rendering {
		t.Helper()
		opt := ParallelOptions{Workers: workers, Metrics: true, TraceCache: tcache}
		m, err := RunMatrixParallel(ctx, wls, cfgs, 1, opt)
		if err != nil {
			t.Fatalf("sweep (workers=%d cache=%v): %v", workers, tcache != nil, err)
		}
		return rendering{
			table:   m.RenderOverheadTable("sensitivity"),
			csv:     m.CSV(),
			metrics: m.Metrics("fig8sens").CSV(),
		}
	}

	cachedJ1 := render(NewTraceCache(), 1)
	cachedJ4 := render(NewTraceCache(), 4)
	uncached := render(nil, 4)

	if cachedJ1 != cachedJ4 {
		t.Errorf("cached sweep not byte-identical across -j:\nj=1: %s\nj=4: %s", cachedJ1.table, cachedJ4.table)
	}
	if cachedJ4.table != uncached.table || cachedJ4.csv != uncached.csv {
		t.Errorf("cache on/off tables diverge:\non:  %s\noff: %s", cachedJ4.table, uncached.table)
	}
	strip := func(csv string) string {
		var keep []string
		for _, line := range strings.Split(csv, "\n") {
			if !strings.Contains(line, "harness.trace_cache.") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(cachedJ4.metrics) != strip(uncached.metrics) {
		t.Errorf("cache on/off metrics diverge beyond the trace_cache counters")
	}
	if strip(cachedJ4.metrics) == cachedJ4.metrics {
		t.Errorf("cached sweep exported no harness.trace_cache.* counters")
	}
}
