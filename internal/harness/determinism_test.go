package harness

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rest/internal/prog"
	"rest/internal/workload"
)

// The determinism differential layer: the parallel sweep engine must be
// indistinguishable from the sequential reference (sequentialMatrix) at
// every worker count. Every cell is a self-contained deterministic
// simulation, so the whole grid — every cell's stats and every rendered
// report — has exactly one correct value; these tests pin parallel ≡
// sequential byte-for-byte.

// determinismGrids are the swept grids the differential runs over: the
// Figure 7 configuration set and the Figure 8 token-width set, each over a
// workload subset chosen for varied alloc rates and access patterns.
func determinismGrids(t *testing.T) []struct {
	name  string
	grid  func() ([]BinaryConfig, []string)
	title string
} {
	t.Helper()
	return []struct {
		name  string
		grid  func() ([]BinaryConfig, []string)
		title string
	}{
		{
			name:  "fig7",
			title: "Figure 7 (determinism differential)",
			grid: func() ([]BinaryConfig, []string) {
				return Fig7Configs(), []string{"lbm", "xalanc", "bzip2"}
			},
		},
		{
			name:  "fig8",
			title: "Figure 8 (determinism differential)",
			grid: func() ([]BinaryConfig, []string) {
				cfgs := append(Fig8Configs(), BinaryConfig{Name: "plain", Pass: prog.Plain()})
				return cfgs, []string{"xalanc", "hmmer"}
			},
		},
	}
}

// sequentialMatrix is the determinism wall's reference sweep: every cell of
// wls × cfgs at scale 1, streamed through runStreamed in grid order on the
// test goroutine, with no pool, no cache and no panic containment. A failing
// cell fails the test. With lim.Metrics it aggregates the cell registries
// as a sweep does.
func sequentialMatrix(t *testing.T, wls []workload.Workload, cfgs []BinaryConfig, lim CellLimits) *Matrix {
	t.Helper()
	m := newMatrix(wls, cfgs)
	for i := range m.cells {
		wl, cfg := wls[i/len(cfgs)], cfgs[i%len(cfgs)]
		r, err := runStreamed(wl, cfg, 1, lim, nil)
		if err != nil {
			t.Fatalf("sequential reference: %v", err)
		}
		m.cells[i].res = r
	}
	if lim.Metrics {
		if cerr := m.aggregateObs(); cerr != nil {
			t.Fatalf("sequential reference: %v", cerr)
		}
	}
	return m
}

// assertSameCells fails unless got has want's grid, in want's order, and
// every cell of it a result with want's full cpu.Stats and outcome
// checksum.
func assertSameCells(t *testing.T, want, got *Matrix) {
	t.Helper()
	if !reflect.DeepEqual(got.Workloads, want.Workloads) || !reflect.DeepEqual(got.Configs, want.Configs) {
		t.Fatalf("grid order differs: %v × %v, want %v × %v", got.Workloads, got.Configs, want.Workloads, want.Configs)
	}
	n := len(want.Configs)
	for i, w := range want.cells {
		g, cell := got.cells[i], want.Workloads[i/n]+"/"+want.Configs[i%n]
		switch {
		case w.res == nil || g.res == nil:
			t.Errorf("%s: a hole (want %q, got %q)", cell, w.reason, g.reason)
		case !reflect.DeepEqual(g.res.Stats, w.res.Stats):
			t.Errorf("%s: stats differ:\nwant %+v\ngot  %+v", cell, w.res.Stats, g.res.Stats)
		case g.res.Outcome.Checksum != w.res.Outcome.Checksum:
			t.Errorf("%s: outcome checksum %#x, want %#x", cell, g.res.Outcome.Checksum, w.res.Outcome.Checksum)
		}
	}
}

// TestRunMatrixParallelDeterminism proves the headline guarantee: for the
// same seed and scale, RunMatrixParallel at j=1, j=4 and j=GOMAXPROCS
// produces, cell for cell, the full cpu.Stats and outcome checksums of the
// sequential reference, and the rendered Figure 7/8 reports (overhead table
// + CSV) are identical strings.
func TestRunMatrixParallelDeterminism(t *testing.T) {
	t.Parallel()
	for _, g := range determinismGrids(t) {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfgs, names := g.grid()
			wls := subset(t, names...)
			seq := sequentialMatrix(t, wls, cfgs, CellLimits{})
			workers := []int{1, 4, runtime.GOMAXPROCS(0)}
			for _, j := range workers {
				j := j
				t.Run(fmt.Sprintf("j=%d", j), func(t *testing.T) {
					t.Parallel()
					par, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
						ParallelOptions{Workers: j})
					if err != nil {
						t.Fatalf("parallel sweep: %v", err)
					}
					assertSameCells(t, seq, par)
					if got, want := par.RenderOverheadTable(g.title), seq.RenderOverheadTable(g.title); got != want {
						t.Errorf("rendered report differs:\n--- sequential ---\n%s--- parallel ---\n%s", want, got)
					}
					if got, want := par.CSV(), seq.CSV(); got != want {
						t.Errorf("CSV report differs:\n--- sequential ---\n%s--- parallel ---\n%s", want, got)
					}
				})
			}
		})
	}
}

// TestRunMatrixParallelRepeatable re-runs the same parallel sweep twice at
// an oversubscribed worker count: completion order genuinely varies between
// runs, the assembled matrices must not, in any cell's stats or checksum.
func TestRunMatrixParallelRepeatable(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm", "gcc")
	opt := ParallelOptions{Workers: 8}
	a, err := RunMatrixParallel(context.Background(), wls, Fig7Configs(), 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMatrixParallel(context.Background(), wls, Fig7Configs(), 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCells(t, a, b)
}

// TestFig3ParallelDeterminism pins the Figure 3 report path against an
// explicit j=1 sweep.
func TestFig3ParallelDeterminism(t *testing.T) {
	t.Parallel()
	wls := subset(t, "xalanc", "lbm")
	one, err := RunFig3Parallel(context.Background(), wls, 1, ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunFig3Parallel(context.Background(), wls, 1, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Rows, many.Rows) {
		t.Errorf("Figure 3 breakdown differs across worker counts:\n%v\n%v", one.Rows, many.Rows)
	}
	if one.Render() != many.Render() {
		t.Error("Figure 3 rendered report differs across worker counts")
	}
}
