package harness

import (
	"fmt"
	"strings"

	"rest/internal/obs"
)

// MetricsReport is a sweep's observability export: the grid-order aggregate
// registry, every cell's private snapshot, and the hole annotations. Like the
// tables, it is byte-identical at any worker count — the renderers walk the
// grid in workload-major order and the aggregate is merged in that same
// order.
type MetricsReport struct {
	// Sweep names the experiment ("fig7", "fig8", "fig3", ...).
	Sweep string
	// Aggregate is the sweep-level registry snapshot (cells merged in grid
	// order plus the harness.* counters).
	Aggregate []obs.Metric
	// Cells carries each completed cell's own snapshot in grid order.
	Cells []CellMetrics
	// Holes annotates cells with no metrics, with the reason, so a missing
	// cell can never pass for an all-zero one.
	Holes []MetricsHole
}

// CellMetrics is one completed cell's metric snapshot.
type CellMetrics struct {
	Workload string
	Config   string
	Metrics  []obs.Metric
}

// MetricsHole annotates one metric-less cell.
type MetricsHole struct {
	Workload string
	Config   string
	Reason   string
}

// Metrics builds the sweep's MetricsReport. It returns nil when the sweep ran
// without metrics enabled (Matrix.Obs is nil) — callers asked for an export
// surface that was never collected.
func (m *Matrix) Metrics(sweep string) *MetricsReport {
	if m.Obs == nil {
		return nil
	}
	r := &MetricsReport{Sweep: sweep, Aggregate: m.Obs.Snapshot()}
	for w, wl := range m.Workloads {
		for c, cl := range m.row(w) {
			switch cfg := m.Configs[c]; {
			case cl.res == nil:
				r.Holes = append(r.Holes, MetricsHole{Workload: wl, Config: cfg, Reason: cl.reason})
			case cl.res.Obs == nil:
				r.Holes = append(r.Holes, MetricsHole{Workload: wl, Config: cfg, Reason: "no metrics collected"})
			default:
				r.Cells = append(r.Cells, CellMetrics{Workload: wl, Config: cfg, Metrics: cl.res.Obs.Snapshot()})
			}
		}
	}
	return r
}

// CSV renders the report as sweep,workload,config,metric,type,field,value
// rows. Aggregate rows use "(all)" for both workload and config; hole rows
// use the pseudo-metric "hole" with the quoted reason in the value column.
func (r *MetricsReport) CSV() string {
	var b strings.Builder
	b.WriteString("sweep,workload,config,metric,type,field,value\n")
	obs.CSVRows(&b, fmt.Sprintf("%s,(all),(all),", r.Sweep), r.Aggregate)
	for _, c := range r.Cells {
		obs.CSVRows(&b, fmt.Sprintf("%s,%s,%s,", r.Sweep, c.Workload, c.Config), c.Metrics)
	}
	for _, h := range r.Holes {
		fmt.Fprintf(&b, "%s,%s,%s,hole,hole,reason,%q\n", r.Sweep, h.Workload, h.Config, h.Reason)
	}
	return b.String()
}
