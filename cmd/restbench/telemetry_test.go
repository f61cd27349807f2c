package main

import (
	"context"
	"fmt"
	"testing"

	"rest/internal/harness"
	"rest/internal/obs"
	"rest/internal/obs/otlp"
	"rest/internal/workload"
)

func testWorkloads(t *testing.T) []workload.Workload {
	t.Helper()
	var wls []workload.Workload
	for _, name := range []string{"lbm", "xalanc"} {
		wl, err := workload.ByName(name)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		wls = append(wls, wl)
	}
	return wls
}

// renderSweep runs the fig8sens grid once and returns every byte a report
// consumer sees: the rendered table, the CSV matrix, and the metrics
// report's CSV.
func renderSweep(t *testing.T, j int, onCell func(obs.CellSpan, *obs.Registry)) (table, csv, mcsv string) {
	t.Helper()
	wls := testWorkloads(t)
	m, err := harness.RunMatrixParallel(context.Background(), wls, harness.Fig8SensitivityConfigs(), 1,
		harness.ParallelOptions{Workers: j, Metrics: true, OnCell: onCell})
	if err != nil {
		t.Fatalf("sweep (j=%d): %v", j, err)
	}
	rep := m.Metrics("fig8sens")
	if rep == nil {
		t.Fatal("no metrics report")
	}
	return m.RenderOverheadTable("sensitivity"), m.CSV(), rep.CSV()
}

// The exporter differential: every report byte must be identical with no
// telemetry, with an active draining subscriber, and with a deliberately
// stalled subscriber that forces the bus onto its drop path — at j=1 and
// j=4. This is the tentpole's half of the determinism contract.
func TestReportsByteIdenticalUnderTelemetry(t *testing.T) {
	t.Parallel()
	for _, j := range []int{1, 4} {
		j := j
		t.Run(fmt.Sprintf("j=%d", j), func(t *testing.T) {
			t.Parallel()
			bt, bc, bmc := renderSweep(t, j, nil) // bare reference

			// Active subscriber draining concurrently.
			telA := otlp.NewExporter("restbench", nil)
			subA := telA.Bus.Subscribe(0)
			done := make(chan int)
			go func() {
				n := 0
				for range subA.C() {
					n++
				}
				done <- n
			}()
			at, ac, amc := renderSweep(t, j, harness.ObserveCells("fig8sens", nil, nil, telA.Observe))
			telA.Bus.Unsubscribe(subA)
			if n := <-done; n == 0 {
				t.Error("active subscriber saw no lines")
			}

			// Stalled subscriber: buffer of 1, never read. The bus must drop
			// lines rather than stall the sweep.
			telS := otlp.NewExporter("restbench", nil)
			telS.Bus.Subscribe(1)
			st, sc, smc := renderSweep(t, j, harness.ObserveCells("fig8sens", nil, nil, telS.Observe))
			if _, dropped := telS.Bus.Counters(); dropped == 0 {
				t.Error("stalled subscriber never forced a drop")
			}

			for name, pair := range map[string][2]string{
				"table/active":        {bt, at},
				"csv/active":          {bc, ac},
				"metrics-csv/active":  {bmc, amc},
				"table/stalled":       {bt, st},
				"csv/stalled":         {bc, sc},
				"metrics-csv/stalled": {bmc, smc},
			} {
				if pair[0] != pair[1] {
					t.Errorf("%s: output diverged under telemetry:\n--- bare ---\n%.1500s\n--- observed ---\n%.1500s",
						name, pair[0], pair[1])
				}
			}
		})
	}
}
