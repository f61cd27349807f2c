package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"rest/internal/attack"
	"rest/internal/core"
	"rest/internal/cpu"
	"rest/internal/obs"
	"rest/internal/prog"
	"rest/internal/sim"
	"rest/internal/workload"
	"rest/internal/world"
)

// The harness half of the decoded-block engine's differential wall: the
// replay differentials (replay_test.go) pin trace-capture equivalence; the
// tests here pin that the block engine is invisible end to end — every
// sweep cell, report, metric row (minus the sim.blockcache.* counters that
// only the block engine owns) and fault/attack verdict is byte-identical
// to the reference interpreter's, at any worker count.

// stripBlockcache removes the block engine's private counters from a
// snapshot so the remainder can be compared across engines (the same
// carve-out TestSweepDeterminismWithTraceCache applies to the trace
// cache's counters).
func stripBlockcache(ms []obs.Metric) []obs.Metric {
	out := ms[:0:0]
	for _, m := range ms {
		if !strings.HasPrefix(m.Name, "sim.blockcache.") {
			out = append(out, m)
		}
	}
	return out
}

// engineCell is one cell run to the end on one engine, through a world
// built directly, so that its final memory stays readable.
type engineCell struct {
	stats *cpu.Stats
	out   world.Outcome
	w     *world.World
}

// runEngineCell builds the world of spec and build on engine e and runs it
// through the full timing model.
func runEngineCell(t *testing.T, spec world.Spec, build func(*prog.Builder), e sim.Engine) engineCell {
	t.Helper()
	spec.Engine = e
	w, err := world.Build(spec, build)
	if err != nil {
		t.Fatalf("engine %s: %v", e, err)
	}
	stats, out := w.RunTimed()
	return engineCell{stats: stats, out: out, w: w}
}

// assertEngineCellEqual compares a block-engine cell against its reference
// twin: identical cycles, stats, outcome, final memory image and metrics.
func assertEngineCellEqual(t *testing.T, ref, blk engineCell) {
	t.Helper()
	if ref.stats.Cycles != blk.stats.Cycles {
		t.Errorf("cycles diverge: ref=%d blk=%d", ref.stats.Cycles, blk.stats.Cycles)
	}
	if !reflect.DeepEqual(ref.stats, blk.stats) {
		t.Errorf("stats diverge:\nref: %+v\nblk: %+v", ref.stats, blk.stats)
	}
	if ref.out.String() != blk.out.String() {
		t.Errorf("outcome diverges: ref=%s blk=%s", ref.out, blk.out)
	}
	if ref.out.Checksum != blk.out.Checksum {
		t.Errorf("checksum diverges: ref=%#x blk=%#x", ref.out.Checksum, blk.out.Checksum)
	}
	if rd, bd := ref.w.Machine.Mem.Digest(), blk.w.Machine.Mem.Digest(); rd != bd {
		t.Errorf("final memory digest diverges: ref=%#x blk=%#x", rd, bd)
	}
	refObs, blkObs := ref.w.Spec.Obs, blk.w.Spec.Obs
	switch {
	case refObs == nil && blkObs == nil:
	case refObs == nil || blkObs == nil:
		t.Errorf("metrics presence diverges")
	default:
		rs := stripBlockcache(refObs.Snapshot())
		bs := stripBlockcache(blkObs.Snapshot())
		if !reflect.DeepEqual(rs, bs) {
			t.Errorf("metrics diverge beyond sim.blockcache.*:\nref: %+v\nblk: %+v", rs, bs)
		}
		// The reference cell must not have grown blockcache counters, and
		// the block cell must actually export them.
		if len(rs) != len(refObs.Snapshot()) {
			t.Errorf("reference cell exported sim.blockcache.* counters")
		}
		if len(bs) == len(blkObs.Snapshot()) {
			t.Errorf("block-engine cell exported no sim.blockcache.* counters")
		}
	}
}

// TestEngineDifferentialMatrix runs every (workload, config) cell of the
// Figure 7 + Figure 8 matrix once per engine and demands byte-identical
// observables. Under -short or the race detector a three-workload subset
// runs, same as the replay matrix.
func TestEngineDifferentialMatrix(t *testing.T) {
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
				run := func(e sim.Engine) engineCell {
					c := runEngineCell(t, cellSpec(cfg, CellLimits{Metrics: true}), wl.Build(1), e)
					if c.out.Err != nil || c.out.Detected() {
						t.Fatalf("engine %s: %s", e, c.out)
					}
					return c
				}
				assertEngineCellEqual(t, run(sim.EngineRef), run(sim.EngineBlocks))
			})
		}
	}
}

// TestEngineDifferentialAttackSuite runs every §V attack — the runs that
// end in mid-block REST exceptions, allocator violations and debug-mode
// continuations — under both engines through the full timing model.
func TestEngineDifferentialAttackSuite(t *testing.T) {
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
				ref := runEngineCell(t, spec, a.Build, sim.EngineRef)
				blk := runEngineCell(t, spec, a.Build, sim.EngineBlocks)
				assertEngineCellEqual(t, ref, blk)
				if ro, bo := ref.out.Exception, blk.out.Exception; (ro == nil) != (bo == nil) {
					t.Fatalf("exception presence diverges: ref=%v blk=%v", ro, bo)
				} else if ro != nil && *ro != *bo {
					t.Errorf("exception diverges: ref=%+v blk=%+v", ro, bo)
				}
			})
		}
	}
}

// TestEngineSweepByteIdentical pins the report contract: a full parallel
// sweep under the block engine renders byte-identical tables and CSVs to
// the reference sweep, and is itself byte-identical across worker counts.
func TestEngineSweepByteIdentical(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm", "sjeng", "xalanc")
	cfgs := Fig8SensitivityConfigs()
	ctx := context.Background()

	type rendering struct {
		table, csv, metrics string
	}
	render := func(e sim.Engine, workers int) rendering {
		t.Helper()
		opt := ParallelOptions{Workers: workers, Metrics: true, Engine: e}
		m, err := RunMatrixParallel(ctx, wls, cfgs, 1, opt)
		if err != nil {
			t.Fatalf("sweep (engine=%s workers=%d): %v", e, workers, err)
		}
		return rendering{
			table:   m.RenderOverheadTable("sensitivity"),
			csv:     m.CSV(),
			metrics: m.Metrics("fig8sens").CSV(),
		}
	}

	blocksJ1 := render(sim.EngineBlocks, 1)
	blocksJ4 := render(sim.EngineBlocks, 4)
	refJ4 := render(sim.EngineRef, 4)

	if blocksJ1 != blocksJ4 {
		t.Errorf("block-engine sweep not byte-identical across -j:\nj=1: %s\nj=4: %s",
			blocksJ1.table, blocksJ4.table)
	}
	if blocksJ4.table != refJ4.table || blocksJ4.csv != refJ4.csv {
		t.Errorf("engines render different sweeps:\nblocks: %s\nref: %s",
			blocksJ4.table, refJ4.table)
	}
	strip := func(csv string) string {
		var keep []string
		for _, line := range strings.Split(csv, "\n") {
			if !strings.Contains(line, "sim.blockcache.") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if strip(blocksJ4.metrics) != strip(refJ4.metrics) {
		t.Errorf("engine metrics diverge beyond the sim.blockcache counters")
	}
	if strip(blocksJ4.metrics) == blocksJ4.metrics {
		t.Errorf("block-engine sweep exported no sim.blockcache.* counters")
	}
	if strip(refJ4.metrics) != refJ4.metrics {
		t.Errorf("reference sweep exported sim.blockcache.* counters")
	}
}

// TestEngineBudgetBecomesHole is the harness-level regression for the
// mid-run-error class: a block-engine cell that trips its instruction
// budget mid-block must degrade to an annotated hole — identical to the
// reference engine's — never panic the worker.
func TestEngineBudgetBecomesHole(t *testing.T) {
	t.Parallel()
	wls := []workload.Workload{spinningWorkload("spinner")}
	cfgs := []BinaryConfig{{Name: "plain", Pass: prog.Plain()}}
	holeFor := func(e sim.Engine) string {
		m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
			ParallelOptions{Workers: 1, CellInstrBudget: 10_000, Engine: e})
		var merr *MatrixError
		if !errors.As(err, &merr) {
			t.Fatalf("engine %s: error is %T, want *MatrixError", e, err)
		}
		var bud *sim.BudgetExceededError
		if !errors.As(merr, &bud) {
			t.Fatalf("engine %s: cell error does not unwrap to *sim.BudgetExceededError: %v", e, err)
		}
		if bud.Instrs != 10_000 {
			t.Errorf("engine %s: budget tripped at %d instrs, want exactly 10000", e, bud.Instrs)
		}
		reason, ok := m.Hole("spinner", "plain")
		if !ok {
			t.Fatalf("engine %s: over-budget cell has no hole annotation", e)
		}
		return reason
	}
	if ref, blk := holeFor(sim.EngineRef), holeFor(sim.EngineBlocks); ref != blk {
		t.Errorf("hole annotations diverge: ref=%q blk=%q", ref, blk)
	}
}
