package harness

import (
	"strings"
	"testing"

	"rest/internal/cpu"
)

// ran is a cell with a result of n cycles.
func ran(n uint64) cell { return cell{res: &RunResult{Stats: &cpu.Stats{Cycles: n}}} }

// chartMatrix hand-builds a two-workload matrix exercising every bar-chart
// path: a normal bar, a clipped bar (> clipPct), a cell hole, and a
// workload whose plain baseline itself is a hole.
func chartMatrix() *Matrix {
	return &Matrix{
		Workloads: []string{"alpha", "beta"},
		Configs:   []string{"plain", "asan", "secure-full"},
		cells: []cell{
			ran(1000), ran(3000), ran(1250),
			{reason: "watchdog: wall_clock budget exceeded (1s)"}, ran(4000), {reason: "panic: boom"},
		},
	}
}

// TestRenderBarChartGolden pins the chart byte-for-byte, including the holes
// path: a hole renders an empty bar with its reason (falling back to the
// plain baseline's reason when the baseline is the missing cell), and a bar
// past the clip threshold renders full-width with the '>' marker — never a
// silent zero in either case.
func TestRenderBarChartGolden(t *testing.T) {
	t.Parallel()
	got := chartMatrix().RenderBarChart("Figure 7 (golden)", 180)
	want := strings.Join([]string{
		"Figure 7 (golden)",
		"(bar = overhead over plain, full scale 180%, '>' = clipped)",
		"",
		"alpha",
		"  asan            |##################################################|>  200.0%",
		"  secure-full     |######                                            |    25.0%",
		"beta",
		"  asan            |                                                  |  hole: watchdog: wall_clock budget exceeded (1s)",
		"  secure-full     |                                                  |  hole: panic: boom",
		"",
	}, "\n")
	if got != want {
		t.Errorf("bar chart diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRenderBarChartFullMatrix checks the no-hole fast path renders every
// non-baseline config and no hole annotations.
func TestRenderBarChartFullMatrix(t *testing.T) {
	t.Parallel()
	m := &Matrix{
		Workloads: []string{"alpha"},
		Configs:   []string{"plain", "asan"},
		cells:     []cell{ran(100), ran(190)},
	}
	got := m.RenderBarChart("t", 180)
	if strings.Contains(got, "hole") {
		t.Errorf("full matrix rendered a hole:\n%s", got)
	}
	if !strings.Contains(got, "90.0%") {
		t.Errorf("expected 90%% bar:\n%s", got)
	}
	if strings.Contains(got, "plain ") && strings.Count(got, "|") != 2 {
		t.Errorf("baseline must not get a bar:\n%s", got)
	}
}
