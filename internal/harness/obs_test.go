package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rest/internal/obs"
)

// findMetric pulls one metric from a snapshot by name.
func findMetric(t *testing.T, ms []obs.Metric, name string) obs.Metric {
	t.Helper()
	for _, m := range ms {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("metric %q not in snapshot (%d metrics)", name, len(ms))
	return obs.Metric{}
}

// TestMetricsDeterminism extends the sweep determinism contract to the
// observability plane: the aggregated metrics report — every counter, gauge
// and histogram of every layer, cell-level and sweep-level — must be
// byte-identical between the sequential reference and the parallel engine at
// j=1 and j=4.
func TestMetricsDeterminism(t *testing.T) {
	t.Parallel()
	cfgs := Fig7Configs()
	wls := subset(t, "lbm", "xalanc")
	seq, err := RunMatrix(wls, cfgs, 1, CellLimits{Metrics: true})
	if err != nil {
		t.Fatalf("sequential observed reference: %v", err)
	}
	want := seq.Metrics("fig7").CSV()
	if !strings.Contains(want, "sim.user_instructions") ||
		!strings.Contains(want, "cpu.rob_occupancy") ||
		!strings.Contains(want, "cache.l1d.") ||
		!strings.Contains(want, "alloc.mallocs") ||
		!strings.Contains(want, "harness.cells_ok") {
		t.Fatalf("reference report is missing layers:\n%.2000s", want)
	}
	for _, j := range []int{1, 4} {
		j := j
		t.Run(fmt.Sprintf("j=%d", j), func(t *testing.T) {
			t.Parallel()
			par, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
				ParallelOptions{Workers: j, Metrics: true})
			if err != nil {
				t.Fatalf("parallel sweep: %v", err)
			}
			got := par.Metrics("fig7").CSV()
			if got != want {
				t.Errorf("metrics CSV differs from sequential reference:\n--- sequential ---\n%.3000s\n--- parallel j=%d ---\n%.3000s", want, j, got)
			}
		})
	}
}

// TestMetricsDisabledByDefault pins the nil fast path: a sweep without
// opt.Metrics collects nothing and Matrix.Metrics reports that as nil rather
// than an empty report.
func TestMetricsDisabledByDefault(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm")
	m, err := RunMatrixParallel(context.Background(), wls, Fig7Configs(), 1, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Obs != nil {
		t.Error("Matrix.Obs non-nil without opt.Metrics")
	}
	if m.Metrics("fig7") != nil {
		t.Error("Metrics() non-nil without opt.Metrics")
	}
	if m.Results["lbm"]["plain"].Obs != nil {
		t.Error("cell registry allocated without opt.Metrics")
	}
}

// TestMetricsHolesAnnotated forces every cell into the watchdog (1-instruction
// budget) and checks the metric surfaces annotate the holes instead of
// rendering zeros: harness.* counters tally the watchdog trips and the CSV
// carries one hole row per cell with the reason.
func TestMetricsHolesAnnotated(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm")
	cfgs := Fig7Configs()[:2] // plain + asan: two cells, both watchdogged
	m, err := RunMatrixParallel(context.Background(), wls, cfgs, 1,
		ParallelOptions{Workers: 2, Metrics: true, CellInstrBudget: 1})
	if err == nil {
		t.Fatal("expected MatrixError from 1-instruction budget")
	}
	if m.Obs == nil {
		t.Fatal("holes must not disable aggregation")
	}
	snap := m.Obs.Snapshot()
	if got := findMetric(t, snap, "harness.cells_hole").Value; got != 2 {
		t.Errorf("harness.cells_hole = %d, want 2", got)
	}
	if got := findMetric(t, snap, "harness.watchdog_trips").Value; got != 2 {
		t.Errorf("harness.watchdog_trips = %d, want 2", got)
	}
	if got := findMetric(t, snap, "harness.cells_ok").Value; got != 0 {
		t.Errorf("harness.cells_ok = %d, want 0", got)
	}
	rep := m.Metrics("fig7")
	if len(rep.Holes) != 2 || len(rep.Cells) != 0 {
		t.Fatalf("report: %d holes, %d cells; want 2, 0", len(rep.Holes), len(rep.Cells))
	}
	csv := rep.CSV()
	if !strings.Contains(csv, "fig7,lbm,plain,hole,hole,reason,") ||
		!strings.Contains(csv, "watchdog") {
		t.Errorf("CSV lacks annotated hole rows:\n%s", csv)
	}
}

// TestCellEventsDriveCatapultTrace runs a sweep with the OnCell stream fed
// through ObserveCells into an obs.Trace (exactly as cmd/restbench -trace
// does) and checks the timeline is schema-valid Catapult JSON with one slice
// per cell carrying the fields bench/restperf's parseCatapult reads:
// category = sweep name, args workload, config, verdict, instrs and cycles.
func TestCellEventsDriveCatapultTrace(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm", "xalanc")
	cfgs := Fig7Configs()
	tr := obs.NewTrace()
	observe := ObserveCells("fig7", nil, tr, nil)
	var mu sync.Mutex
	seen := 0
	_, err := RunMatrixParallel(context.Background(), wls, cfgs, 1, ParallelOptions{
		Workers: 4,
		OnCell: func(ev CellEvent) {
			mu.Lock()
			seen++
			mu.Unlock()
			if ev.Worker < 0 || ev.Worker >= 4 {
				t.Errorf("event worker %d out of pool range", ev.Worker)
			}
			if ev.Err == nil && !ev.Skipped && (ev.Instrs == 0 || ev.Cycles == 0) {
				t.Errorf("successful cell %s/%s has empty summary", ev.Workload, ev.Config)
			}
			observe(ev)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(wls) * len(cfgs); seen != want {
		t.Errorf("OnCell fired %d times, want %d", seen, want)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateCatapult(buf.Bytes()); err != nil {
		t.Fatalf("sweep trace fails Catapult schema: %v\n%.2000s", err, buf.String())
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Cat  string `json:"cat"`
			Args struct {
				Workload string `json:"workload"`
				Config   string `json:"config"`
				Verdict  string `json:"verdict"`
				Instrs   uint64 `json:"instrs"`
				Cycles   uint64 `json:"cycles"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	cells := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		a := ev.Args
		if ev.Cat != "fig7" || a.Verdict != "ok" || a.Instrs == 0 || a.Cycles == 0 ||
			ev.Name != a.Workload+"/"+a.Config {
			t.Errorf("cell slice %q: cat %q, args %+v; want cat fig7, verdict ok, non-zero instrs and cycles", ev.Name, ev.Cat, a)
		}
		cells[a.Workload+"/"+a.Config] = true
	}
	for _, wl := range wls {
		for _, c := range cfgs {
			if !cells[wl.Name+"/"+c.Name] {
				t.Errorf("no slice for cell %s/%s", wl.Name, c.Name)
			}
		}
	}
}

// TestFig3AndMicroMetricsPassThrough pins the report-level export surfaces.
func TestFig3AndMicroMetricsPassThrough(t *testing.T) {
	t.Parallel()
	wls := subset(t, "lbm")
	f3, err := RunFig3Parallel(context.Background(), wls, 1, ParallelOptions{Workers: 2, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := f3.Matrix.Metrics("fig3")
	if rep == nil || rep.Sweep != "fig3" || len(rep.Cells) == 0 {
		t.Fatalf("fig3 metrics report: %+v", rep)
	}
	ms, err := RunMicroStatsParallel(context.Background(), wls[0], 1, ParallelOptions{Workers: 2, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	mrep := ms.Matrix.Metrics("micro")
	if mrep == nil || mrep.Sweep != "micro" || len(mrep.Cells) != 2 {
		t.Fatalf("micro metrics report: %+v", mrep)
	}
}
