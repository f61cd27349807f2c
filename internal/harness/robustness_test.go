package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rest/internal/obs"
	"rest/internal/prog"
	"rest/internal/sim"
	"rest/internal/workload"
)

// panickingWorkload crashes inside the program builder — deep under
// world.Build — the way a buggy workload generator would.
func panickingWorkload(name string) workload.Workload {
	return workload.Workload{
		Name:        name,
		Description: "panics during program construction (test fixture)",
		Build: func(scale int64) func(b *prog.Builder) {
			return func(b *prog.Builder) {
				panic("fixture: workload builder exploded")
			}
		},
	}
}

// spinningWorkload runs an unbounded loop, the fixture for both watchdogs.
func spinningWorkload(name string) workload.Workload {
	return workload.Workload{
		Name:        name,
		Description: "never terminates (test fixture)",
		Build: func(scale int64) func(b *prog.Builder) {
			return func(b *prog.Builder) {
				f := b.Func("main")
				top := f.NewLabel()
				f.Bind(top)
				f.Nop()
				f.Jmp(top)
			}
		},
	}
}

// TestPanicBecomesCellError: a panicking cell must come back as a
// *PanicError carrying a stack trace, while its sibling cells survive and
// the failed cell becomes an annotated hole.
func TestPanicBecomesCellError(t *testing.T) {
	t.Parallel()
	wls := []workload.Workload{goodWorkload(t), panickingWorkload("crasher")}
	cfgs := []BinaryConfig{
		{Name: "plain", Pass: prog.Plain()},
		{Name: "secure-heap", Pass: prog.RESTHeap(64)},
	}
	m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 4})
	var merr *MatrixError
	if !errors.As(err, &merr) {
		t.Fatalf("error is %T, want *MatrixError", err)
	}
	if len(merr.Cells) != 2 { // crasher fails under both configs
		t.Fatalf("got %d cell errors, want 2: %v", len(merr.Cells), err)
	}
	for _, c := range merr.Cells {
		if c.Workload != "crasher" {
			t.Errorf("panic attributed to %s, want crasher", c.Workload)
		}
		var pe *PanicError
		if !errors.As(c.Err, &pe) {
			t.Fatalf("cell error is %T, want *PanicError", c.Err)
		}
		if pe.Value != "fixture: workload builder exploded" {
			t.Errorf("panic value %v lost", pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "panickingWorkload") {
			t.Errorf("stack trace does not reach the panic site:\n%s", pe.Stack)
		}
	}
	// Sibling survival: the healthy workload completed under both configs.
	for _, cfg := range []string{"plain", "secure-heap"} {
		if _, ok := m.Cycles("lbm", cfg); !ok {
			t.Errorf("healthy cell lbm/%s did not survive the sibling panic", cfg)
		}
	}
	// The crashed cells are annotated holes with the panic reason.
	for _, cfg := range []string{"plain", "secure-heap"} {
		reason, ok := m.Hole("crasher", cfg)
		if !ok {
			t.Errorf("crasher/%s has no hole annotation", cfg)
		} else if !strings.Contains(reason, "panic:") {
			t.Errorf("hole reason %q does not name the panic", reason)
		}
	}
}

// TestPanicAggregationDeterministic: the aggregated MatrixError and the
// rendered partial matrix must be identical at any worker count — grid
// order, not completion order.
func TestPanicAggregationDeterministic(t *testing.T) {
	t.Parallel()
	wls := []workload.Workload{panickingWorkload("crash-a"), goodWorkload(t), panickingWorkload("crash-z")}
	cfgs := []BinaryConfig{
		{Name: "plain", Pass: prog.Plain()},
		{Name: "secure-heap", Pass: prog.RESTHeap(64)},
	}
	// Panic stack traces carry goroutine ids, so the full error text is not
	// comparable across runs; the cell coordinate sequence and the rendered
	// partial matrix (hole annotations included) must be.
	run := func(workers int) (string, string) {
		m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
			ParallelOptions{Workers: workers})
		var merr *MatrixError
		if !errors.As(err, &merr) {
			t.Fatalf("error is %T, want *MatrixError", err)
		}
		var order strings.Builder
		for _, c := range merr.Cells {
			fmt.Fprintf(&order, "%s/%s\n", c.Workload, c.Config)
		}
		return order.String(), m.RenderOverheadTable("t")
	}
	ord1, tab1 := run(1)
	ord4, tab4 := run(4)
	if ord1 != ord4 {
		t.Errorf("cell error order depends on worker count:\n%s\nvs\n%s", ord1, ord4)
	}
	if ord1 != "crash-a/plain\ncrash-a/secure-heap\ncrash-z/plain\ncrash-z/secure-heap\n" {
		t.Errorf("cell errors not in grid order:\n%s", ord1)
	}
	if tab1 != tab4 {
		t.Errorf("rendered matrix depends on worker count:\n%s\nvs\n%s", tab1, tab4)
	}
}

// TestCellInstrBudget: an over-budget cell must fail with the typed
// *sim.BudgetExceededError and become a watchdog-annotated hole.
func TestCellInstrBudget(t *testing.T) {
	t.Parallel()
	wls := []workload.Workload{spinningWorkload("spinner")}
	cfgs := []BinaryConfig{{Name: "plain", Pass: prog.Plain()}}
	m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 1, CellInstrBudget: 10_000})
	var merr *MatrixError
	if !errors.As(err, &merr) {
		t.Fatalf("error is %T, want *MatrixError", err)
	}
	var bud *sim.BudgetExceededError
	if !errors.As(merr, &bud) {
		t.Fatalf("cell error does not unwrap to *sim.BudgetExceededError: %v", err)
	}
	if bud.Resource != "instructions" {
		t.Errorf("budget resource %q, want instructions", bud.Resource)
	}
	reason, ok := m.Hole("spinner", "plain")
	if !ok || !strings.Contains(reason, "watchdog:") {
		t.Errorf("hole reason %q does not name the watchdog", reason)
	}
}

// TestCellTimeout: the wall-clock watchdog must cut a spinning cell loose
// and annotate the hole. (Sibling survival is pinned by the panic test —
// here every cell shares the timeout, so a slow-but-healthy sibling would
// be flaky under the race detector's ~10x slowdown.)
func TestCellTimeout(t *testing.T) {
	t.Parallel()
	wls := []workload.Workload{spinningWorkload("spinner")}
	cfgs := []BinaryConfig{{Name: "plain", Pass: prog.Plain()}}
	start := time.Now()
	m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 1, CellTimeout: time.Second})
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("watchdog did not fire; sweep took %v", elapsed)
	}
	var merr *MatrixError
	if !errors.As(err, &merr) {
		t.Fatalf("error is %T, want *MatrixError", err)
	}
	var bud *sim.BudgetExceededError
	if !errors.As(merr, &bud) {
		t.Fatalf("cell error does not unwrap to *sim.BudgetExceededError: %v", err)
	}
	if bud.Resource != "wall-clock" {
		t.Errorf("budget resource %q, want wall-clock", bud.Resource)
	}
	if _, ok := m.Hole("spinner", "plain"); !ok {
		t.Error("timed-out cell has no hole annotation")
	}
}

// TestContextDeadlineTightensCells: a caller deadline must reach the cells
// even when no explicit CellTimeout is set (the -timeout flag path).
func TestContextDeadlineTightensCells(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	wls := []workload.Workload{spinningWorkload("spinner")}
	cfgs := []BinaryConfig{{Name: "plain", Pass: prog.Plain()}}
	start := time.Now()
	_, err := RunMatrixParallel(ctx, wls, cfgs, 1, ParallelOptions{Workers: 1})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("context deadline did not reach the cell; sweep took %v", elapsed)
	}
	var merr *MatrixError
	if !errors.As(err, &merr) {
		t.Fatalf("error is %T, want *MatrixError", err)
	}
}

// TestHoleRenderers: every renderer must mark holes explicitly — a gap can
// never pass for a zero.
func TestHoleRenderers(t *testing.T) {
	t.Parallel()
	wls := []workload.Workload{goodWorkload(t), panickingWorkload("crasher")}
	cfgs := []BinaryConfig{
		{Name: "plain", Pass: prog.Plain()},
		{Name: "secure-heap", Pass: prog.RESTHeap(64)},
	}
	m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 2})
	if err == nil {
		t.Fatal("want a MatrixError")
	}

	table := m.RenderOverheadTable("Figure 7 (partial)")
	if !strings.Contains(table, "hole") {
		t.Errorf("overhead table does not mark the hole:\n%s", table)
	}
	if !strings.Contains(table, "holes (") || !strings.Contains(table, "crasher/plain") {
		t.Errorf("overhead table lacks the hole footer:\n%s", table)
	}

	csv := m.CSV()
	for _, line := range strings.Split(csv, "\n") {
		if strings.HasPrefix(line, "crasher") && !strings.Contains(line, "NA") {
			t.Errorf("CSV renders the crashed row without NA markers: %q", line)
		}
	}

	chart := m.RenderBarChart("chart", 180)
	if !strings.Contains(chart, "hole:") {
		t.Errorf("bar chart does not mark the hole:\n%s", chart)
	}

	// Means must cover complete rows only: with the crasher row broken, the
	// weighted mean must equal the healthy row's overhead exactly.
	want := m.Overhead("lbm", "secure-heap")
	if got := m.WtdAriMeanOverhead("secure-heap"); got != want {
		t.Errorf("mean over holes: got %v, want the complete row's %v", got, want)
	}
}

// TestFig3PartialBreakdown: a Figure 3 sweep with a broken workload must
// still deliver the healthy workload's breakdown plus an annotated hole row.
func TestFig3PartialBreakdown(t *testing.T) {
	t.Parallel()
	wls := []workload.Workload{goodWorkload(t), panickingWorkload("crasher")}
	r, err := RunFig3Parallel(context.Background(), wls, 1, ParallelOptions{Workers: 2})
	var merr *MatrixError
	if !errors.As(err, &merr) {
		t.Fatalf("error is %T, want *MatrixError", err)
	}
	if r == nil {
		t.Fatal("no partial Fig3Result alongside the MatrixError")
	}
	if len(r.Rows) != 2 || r.Rows[0].Workload != "lbm" || r.Rows[1].Workload != "crasher" {
		t.Fatalf("rows %+v, want lbm then crasher", r.Rows)
	}
	if lbm := r.Rows[0]; lbm.Hole != "" || len(lbm.Parts) != len(Fig3Components) {
		t.Errorf("healthy workload's row %+v lacks its breakdown", lbm)
	}
	if crasher := r.Rows[1]; !strings.HasPrefix(crasher.Hole, "plain: panic:") || crasher.Parts != nil {
		t.Errorf("broken workload's row %+v is not a hole naming its first level", crasher)
	}
	render := r.Render()
	if !strings.Contains(render, "hole") {
		t.Errorf("Fig3 render does not mark the hole:\n%s", render)
	}
}

// TestSweepReturnsEveryCellOnce runs a sweep whose grid mixes healthy,
// panicking and over-budget cells. Every grid cell must come back exactly
// once, as a result or a hole, in grid order: in the Matrix, in the
// MatrixError's cells and in the OnCell spans, whose verdicts and reasons
// must be the Matrix's holes.
func TestSweepReturnsEveryCellOnce(t *testing.T) {
	t.Parallel()
	wls := []workload.Workload{panickingWorkload("crasher"), goodWorkload(t), spinningWorkload("spinner")}
	cfgs := []BinaryConfig{
		{Name: "plain", Pass: prog.Plain()},
		{Name: "secure-heap", Pass: prog.RESTHeap(64)},
	}
	var mu sync.Mutex
	spans := map[int][]obs.CellSpan{}
	m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1, ParallelOptions{
		Workers:         2,
		CellInstrBudget: 1_000_000,
		OnCell: func(s obs.CellSpan, _ *obs.Registry) {
			mu.Lock()
			spans[s.Index] = append(spans[s.Index], s)
			mu.Unlock()
		},
	})
	var merr *MatrixError
	if !errors.As(err, &merr) {
		t.Fatalf("error is %T, want *MatrixError", err)
	}
	var order strings.Builder
	for _, c := range merr.Cells {
		fmt.Fprintf(&order, "%s/%s ", c.Workload, c.Config)
	}
	if got, want := order.String(), "crasher/plain crasher/secure-heap spinner/plain spinner/secure-heap "; got != want || merr.Skipped != 0 {
		t.Errorf("MatrixError cells %q, %d skipped; want %q, none", got, merr.Skipped, want)
	}
	if len(m.cells) != len(wls)*len(cfgs) || len(spans) != len(m.cells) {
		t.Fatalf("%d cells and spans for %d indices, want %d of each", len(m.cells), len(spans), len(wls)*len(cfgs))
	}
	for i, c := range m.cells {
		wl, cfg := wls[i/len(cfgs)].Name, cfgs[i%len(cfgs)].Name
		reason, hole := m.Hole(wl, cfg)
		res := m.Result(wl, cfg)
		switch {
		case hole == (res != nil):
			t.Errorf("%s/%s: result %v, hole %v; want exactly one", wl, cfg, res != nil, hole)
		case res != nil && (res != c.res || res.Workload != wl || res.Config != cfg):
			t.Errorf("%s/%s: result for %s/%s at grid position %d", wl, cfg, res.Workload, res.Config, i)
		case wl == "lbm" && hole:
			t.Errorf("%s/%s: healthy cell is a hole: %s", wl, cfg, reason)
		case wl == "crasher" && !strings.HasPrefix(reason, "panic: "),
			wl == "spinner" && !strings.HasPrefix(reason, "watchdog: instructions budget exceeded"):
			t.Errorf("%s/%s: hole reason %q", wl, cfg, reason)
		}
		if len(spans[i]) != 1 {
			t.Errorf("%s/%s: %d spans, want 1", wl, cfg, len(spans[i]))
			continue
		}
		s := spans[i][0]
		want := obs.CellSpan{Verdict: "ok"}
		if hole {
			want = obs.CellSpan{Verdict: "hole", Reason: reason}
		}
		if s.Workload != wl || s.Config != cfg || s.Total != len(m.cells) || s.Verdict != want.Verdict || s.Reason != want.Reason {
			t.Errorf("%s/%s: span %s/%s of %d, verdict %q, reason %q; want verdict %q, reason %q",
				wl, cfg, s.Workload, s.Config, s.Total, s.Verdict, s.Reason, want.Verdict, want.Reason)
		}
	}
}
