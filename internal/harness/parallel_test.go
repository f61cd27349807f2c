package harness

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rest/internal/persist"
	"rest/internal/prog"
	"rest/internal/workload"
)

// overflowWorkload is a synthetic workload whose program reads one word past
// a heap allocation's 64-byte-rounded extent, landing in the bookend
// redzone. Plain builds complete (the word is unpoisoned simulated memory);
// any protecting pass flags the access, which the harness reports as a
// "spurious detection" cell error — the trigger the aggregation tests need.
func overflowWorkload(name string) workload.Workload {
	return workload.Workload{
		Name:        name,
		Description: "deliberate off-by-one heap read (test fixture)",
		Build: func(scale int64) func(b *prog.Builder) {
			return func(b *prog.Builder) {
				f := b.Func("main")
				p := f.Reg()
				v := f.Reg()
				f.CallMallocI(p, 16)
				f.Load(v, p, 64, 8)
				f.Checksum(v)
			}
		},
	}
}

func goodWorkload(t *testing.T) workload.Workload {
	t.Helper()
	wl, err := workload.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestParallelErrorAggregation: with cancellation off, a poisoned cell must
// surface its error — workload and config names intact — while every other
// cell still completes and lands in the partial matrix.
func TestParallelErrorAggregation(t *testing.T) {
	t.Parallel()
	wls := []workload.Workload{goodWorkload(t), overflowWorkload("overflower")}
	cfgs := []BinaryConfig{
		{Name: "plain", Pass: prog.Plain()},
		{Name: "secure-heap", Pass: prog.RESTHeap(64)},
	}
	m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 2})
	if err == nil {
		t.Fatal("poisoned cell produced no error")
	}
	var merr *MatrixError
	if !errors.As(err, &merr) {
		t.Fatalf("error is %T, want *MatrixError", err)
	}
	if len(merr.Cells) != 1 || merr.Skipped != 0 {
		t.Fatalf("got %d cell errors, %d skipped; want 1, 0: %v",
			len(merr.Cells), merr.Skipped, err)
	}
	c := merr.Cells[0]
	if c.Workload != "overflower" || c.Config != "secure-heap" {
		t.Errorf("error attributed to %s/%s, want overflower/secure-heap", c.Workload, c.Config)
	}
	for _, want := range []string{"overflower", "secure-heap", "detect"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error %q missing %q", err.Error(), want)
		}
	}
	// The three healthy cells completed despite the failure.
	for _, cell := range []struct{ wl, cfg string }{
		{"lbm", "plain"}, {"lbm", "secure-heap"}, {"overflower", "plain"},
	} {
		if _, ok := m.Cycles(cell.wl, cell.cfg); !ok {
			t.Errorf("healthy cell %s/%s missing from partial matrix", cell.wl, cell.cfg)
		}
	}
	if m.Result("overflower", "secure-heap") != nil {
		t.Error("failed cell has a result in the matrix")
	}
}

// TestParallelFailFast: with cancellation on and one worker, the grid is
// processed in order, so a failure in the first cell must skip all later
// cells deterministically.
func TestParallelFailFast(t *testing.T) {
	t.Parallel()
	wls := []workload.Workload{overflowWorkload("overflower"), goodWorkload(t)}
	cfgs := []BinaryConfig{
		{Name: "secure-heap", Pass: prog.RESTHeap(64)},
		{Name: "plain", Pass: prog.Plain()},
	}
	_, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 1, FailFast: true})
	var merr *MatrixError
	if !errors.As(err, &merr) {
		t.Fatalf("error is %T, want *MatrixError", err)
	}
	if len(merr.Cells) != 1 {
		t.Fatalf("got %d cell errors, want 1: %v", len(merr.Cells), err)
	}
	if merr.Skipped != 3 {
		t.Errorf("skipped %d cells after cancellation, want 3", merr.Skipped)
	}
	if !strings.Contains(err.Error(), "skipped after cancellation") {
		t.Errorf("aggregated error %q does not report the skips", err.Error())
	}
}

// TestParallelExternalCancellation: a context cancelled before the sweep
// starts must skip every cell and run nothing.
func TestParallelExternalCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := RunMatrixParallel(ctx, []workload.Workload{goodWorkload(t)},
		Fig7Configs(), 1, ParallelOptions{Workers: 2})
	var merr *MatrixError
	if !errors.As(err, &merr) {
		t.Fatalf("error is %T, want *MatrixError", err)
	}
	if merr.Skipped != len(Fig7Configs()) || len(merr.Cells) != 0 {
		t.Errorf("got %d skipped, %d errors; want all %d skipped",
			merr.Skipped, len(merr.Cells), len(Fig7Configs()))
	}
	if m.HoleCount() != len(Fig7Configs()) {
		t.Errorf("cancelled sweep has %d holes, want every cell", m.HoleCount())
	}
}

// TestParallelWorkerDefaults pins the worker resolution rule.
func TestParallelWorkerDefaults(t *testing.T) {
	t.Parallel()
	if got := (ParallelOptions{}).EffectiveWorkers(); got < 1 {
		t.Errorf("default workers = %d, want >= 1", got)
	}
	if got := (ParallelOptions{Workers: 3}).EffectiveWorkers(); got != 3 {
		t.Errorf("explicit workers = %d, want 3", got)
	}
	if got := (ParallelOptions{Workers: -2}).EffectiveWorkers(); got < 1 {
		t.Errorf("negative workers resolved to %d, want >= 1", got)
	}
}

// TestParallelCellErrorUnwrap: errors.Is must see through the aggregation to
// the underlying cell error.
func TestParallelCellErrorUnwrap(t *testing.T) {
	t.Parallel()
	sentinel := errors.New("boom")
	merr := &MatrixError{Cells: []*CellError{
		{Workload: "w", Config: "c", Err: sentinel},
	}}
	if !errors.Is(merr, sentinel) {
		t.Error("errors.Is does not reach the wrapped cell error")
	}
	var cerr *CellError
	if !errors.As(merr, &cerr) || cerr.Workload != "w" {
		t.Error("errors.As does not recover the *CellError")
	}
}

// TestMicroStatsReadCellRegistries pins where the §VI-B token rates come
// from: the secure cell's metric registry, which its hierarchy flushes at
// the end of the run. It runs the micro stats over a fresh store at -j 2;
// each cell must come back with a registry that saw L1-D accesses, and the
// two rates must be the secure cell's counters per kilo-instruction.
func TestMicroStatsReadCellRegistries(t *testing.T) {
	t.Parallel()
	tc, _ := diskTC(t, t.TempDir(), persist.Options{})
	wl := subset(t, "xalanc")[0]
	s, err := RunMicroStatsParallel(context.Background(), wl, 1, ParallelOptions{Workers: 2, TraceCache: tc})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []string{"secure-full", "debug-full"} {
		r := s.Matrix.Result(wl.Name, cfg)
		if r.Obs.Counter("cache.l1d.accesses").Value() == 0 {
			t.Fatalf("micro stats cell %s (source %q): its registry saw no L1-D accesses", cfg, r.Source)
		}
	}
	sec := s.Matrix.Result(wl.Name, "secure-full")
	kinstr := float64(sec.Stats.Instructions) / 1000
	if want := float64(sec.Obs.Counter("cache.token_l2mem_crossings").Value()) / kinstr; s.TokenL2MemPerKInstr != want {
		t.Errorf("token L2/memory crossings %v per kinstr, want %v from the secure cell's registry", s.TokenL2MemPerKInstr, want)
	}
	if want := float64(sec.Obs.Counter("cache.l1d.token_evicts").Value()) / kinstr; s.TokenL1EvPerKInstr != want || want == 0 {
		t.Errorf("L1-D token evictions %v per kinstr, want %v from the secure cell's registry (and above zero)", s.TokenL1EvPerKInstr, want)
	}
}
