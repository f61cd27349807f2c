package harness

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rest/internal/prog"
)

// The determinism differential layer: the parallel sweep engine must be
// indistinguishable from the sequential reference at every worker count.
// Every cell is a self-contained deterministic simulation, so the whole
// grid — raw cycle matrices and every rendered report — has exactly one
// correct value; these tests pin parallel ≡ sequential byte-for-byte.

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

// TestRunMatrixParallelDeterminism proves the headline guarantee: for the
// same seed and scale, RunMatrixParallel at j=1, j=4 and j=GOMAXPROCS
// produces Cycles maps byte-identical to the sequential RunMatrix, and the
// rendered Figure 7/8 reports (overhead table + CSV) are identical strings.
func TestRunMatrixParallelDeterminism(t *testing.T) {
	t.Parallel()
	for _, g := range determinismGrids(t) {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfgs, names := g.grid()
			wls := subset(t, names...)
			seq, err := RunMatrix(wls, cfgs, 1, CellLimits{})
			if err != nil {
				t.Fatalf("sequential reference: %v", err)
			}
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
					if !reflect.DeepEqual(par.Cycles, seq.Cycles) {
						t.Errorf("cycle matrices differ:\nsequential: %v\nparallel:   %v",
							seq.Cycles, par.Cycles)
					}
					if !reflect.DeepEqual(par.Workloads, seq.Workloads) ||
						!reflect.DeepEqual(par.Configs, seq.Configs) {
						t.Errorf("grid iteration order differs: %v/%v vs %v/%v",
							par.Workloads, par.Configs, seq.Workloads, seq.Configs)
					}
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
// runs, the assembled matrices must not.
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
	if !reflect.DeepEqual(a.Cycles, b.Cycles) {
		t.Errorf("two identical parallel sweeps disagree:\n%v\n%v", a.Cycles, b.Cycles)
	}
}

// TestFig3ParallelDeterminism pins the Figure 3 report path (which now runs
// on the parallel engine by default) against an explicit j=1 sweep.
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
	if !reflect.DeepEqual(one.Breakdown, many.Breakdown) ||
		!reflect.DeepEqual(one.Total, many.Total) {
		t.Errorf("Figure 3 breakdown differs across worker counts:\n%v\n%v",
			one.Breakdown, many.Breakdown)
	}
	if one.Render() != many.Render() {
		t.Error("Figure 3 rendered report differs across worker counts")
	}
}
