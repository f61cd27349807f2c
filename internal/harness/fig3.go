package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"rest/internal/prog"
	"rest/internal/workload"
)

// Fig3Components are ASan's four overhead sources (paper Figure 3), applied
// cumulatively so each component's marginal cost can be stacked.
var Fig3Components = []string{
	"Allocator",
	"Stack Frame Setup",
	"Memory Access Validation",
	"API Intercept",
}

// fig3Configs returns the cumulative build levels: plain baseline, then one
// more ASan component per level. All levels run on the in-order core, as
// the paper's Figure 3 does (footnote 1).
func fig3Configs() []BinaryConfig {
	no := false
	yes := true
	return []BinaryConfig{
		{Name: "plain", Pass: prog.Plain(), InOrder: true},
		{Name: "alloc", Pass: prog.ASanComponents(false, false), InterceptLibc: &no, InOrder: true},
		{Name: "alloc+stack", Pass: prog.ASanComponents(true, false), InterceptLibc: &no, InOrder: true},
		{Name: "alloc+stack+checks", Pass: prog.ASanComponents(true, true), InterceptLibc: &no, InOrder: true},
		{Name: "asan-full", Pass: prog.ASanComponents(true, true), InterceptLibc: &yes, InOrder: true},
	}
}

// Fig3Result holds the component breakdown: Breakdown[workload][i] is the
// marginal overhead (percentage points over plain) of Fig3Components[i].
// Workloads with a failed/timed-out level have no breakdown; they appear in
// Holes[workload] with the first failing level's reason instead.
type Fig3Result struct {
	Workloads []string
	Breakdown map[string][]float64
	Total     map[string]float64
	Holes     map[string]string
	// Matrix is the underlying sweep (metrics/holes export surface).
	Matrix *Matrix
}

// RunFig3 regenerates Figure 3's ASan overhead breakdown on the parallel
// sweep engine at its default worker count. The context bounds the whole
// figure (cmd/restbench -timeout reaches every report path through it).
func RunFig3(ctx context.Context, wls []workload.Workload, scale int64) (*Fig3Result, error) {
	return RunFig3Parallel(ctx, wls, scale, ParallelOptions{})
}

// RunFig3Parallel is RunFig3 with explicit sweep options (cmd/restbench -j).
// A sweep with failed cells still returns the partial breakdown: the
// workloads whose five levels all completed are computed normally, the rest
// become annotated holes, and the *MatrixError comes back alongside so the
// caller chooses between strict and keep-going behaviour.
func RunFig3Parallel(ctx context.Context, wls []workload.Workload, scale int64, opt ParallelOptions) (*Fig3Result, error) {
	m, err := RunMatrixParallel(ctx, wls, fig3Configs(), scale, opt)
	var merr *MatrixError
	if err != nil && !errors.As(err, &merr) {
		return nil, err
	}
	res := &Fig3Result{
		Workloads: m.Workloads,
		Breakdown: make(map[string][]float64),
		Total:     make(map[string]float64),
		Matrix:    m,
	}
	levels := []string{"alloc", "alloc+stack", "alloc+stack+checks", "asan-full"}
	for _, wl := range m.Workloads {
		if reason, holed := fig3RowHole(m, wl, levels); holed {
			if res.Holes == nil {
				res.Holes = make(map[string]string)
			}
			res.Holes[wl] = reason
			continue
		}
		prev := 0.0
		parts := make([]float64, len(levels))
		for i, lv := range levels {
			ov := m.Overhead(wl, lv)
			parts[i] = ov - prev
			prev = ov
		}
		res.Breakdown[wl] = parts
		res.Total[wl] = prev
	}
	return res, err
}

// fig3RowHole reports whether a workload's breakdown is uncomputable (any of
// its cumulative levels or its baseline missing) and with which reason.
func fig3RowHole(m *Matrix, wl string, levels []string) (string, bool) {
	for _, lv := range append([]string{"plain"}, levels...) {
		if _, ok := m.Cycles[wl][lv]; ok {
			continue
		}
		if reason, ok := m.Hole(wl, lv); ok {
			return fmt.Sprintf("%s: %s", lv, reason), true
		}
		return fmt.Sprintf("%s: missing", lv), true
	}
	return "", false
}

// Render prints the stacked breakdown; workloads without one are rendered as
// explicit hole rows, never as zeros.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3: breakdown of ASan overhead sources (% over plain/libc)\n")
	fmt.Fprintf(&b, "%-12s", "benchmark")
	for _, c := range Fig3Components {
		fmt.Fprintf(&b, "%26s", c)
	}
	fmt.Fprintf(&b, "%10s\n", "total")
	for _, wl := range r.Workloads {
		fmt.Fprintf(&b, "%-12s", wl)
		if reason, ok := r.Holes[wl]; ok {
			fmt.Fprintf(&b, "  hole (%s)\n", reason)
			continue
		}
		for _, v := range r.Breakdown[wl] {
			fmt.Fprintf(&b, "%25.1f%%", v)
		}
		fmt.Fprintf(&b, "%9.1f%%\n", r.Total[wl])
	}
	return b.String()
}
