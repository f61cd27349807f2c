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

// Fig3Result holds the component breakdown, one row per workload in grid
// order.
type Fig3Result struct {
	Rows []Fig3Row
	// Matrix is the underlying sweep (metrics/holes export surface).
	Matrix *Matrix
}

// Fig3Row is one workload's breakdown: Parts[i] is the marginal overhead
// (percentage points over plain) of Fig3Components[i], and Total their sum.
// A workload with a failed or timed-out level has no breakdown; Hole then
// names the first failing level and its reason.
type Fig3Row struct {
	Workload string
	Parts    []float64
	Total    float64
	Hole     string
}

// RunFig3Parallel regenerates Figure 3's ASan overhead breakdown on the
// parallel sweep engine. The context bounds the whole figure (restbench
// -timeout reaches every report path through it). A sweep with failed cells
// still returns the partial breakdown: the workloads whose five levels all
// completed are computed normally, the rest become annotated holes, and the
// *MatrixError comes back alongside so the caller chooses between strict
// and keep-going behaviour.
func RunFig3Parallel(ctx context.Context, wls []workload.Workload, scale int64, opt ParallelOptions) (*Fig3Result, error) {
	cfgs := fig3Configs()
	m, err := RunMatrixParallel(ctx, wls, cfgs, scale, opt)
	var merr *MatrixError
	if err != nil && !errors.As(err, &merr) {
		return nil, err
	}
	res := &Fig3Result{Matrix: m}
	for w, wl := range m.Workloads {
		res.Rows = append(res.Rows, fig3Row(wl, m.row(w), cfgs))
	}
	return res, err
}

// fig3Row computes one workload's breakdown from its row of cells, the
// plain baseline first and then each cumulative level; the first hole in
// the row makes the whole row a hole.
func fig3Row(wl string, row []cell, cfgs []BinaryConfig) Fig3Row {
	for c, cl := range row {
		if cl.res == nil {
			return Fig3Row{Workload: wl, Hole: fmt.Sprintf("%s: %s", cfgs[c].Name, cl.reason)}
		}
	}
	r := Fig3Row{Workload: wl, Parts: make([]float64, len(row)-1)}
	plain := row[0].res.Stats.Cycles
	for i, cl := range row[1:] {
		ov := overhead(cl.res.Stats.Cycles, plain)
		r.Parts[i] = ov - r.Total
		r.Total = ov
	}
	return r
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
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s", row.Workload)
		if row.Hole != "" {
			fmt.Fprintf(&b, "  hole (%s)\n", row.Hole)
			continue
		}
		for _, v := range row.Parts {
			fmt.Fprintf(&b, "%25.1f%%", v)
		}
		fmt.Fprintf(&b, "%9.1f%%\n", row.Total)
	}
	return b.String()
}
