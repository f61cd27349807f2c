package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

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
func renderSweep(t *testing.T, j int, onCell func(harness.CellEvent)) (table, csv, mcsv string) {
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
			telA := harness.NewTelemetryExporter("restbench", nil)
			subA := telA.Bus.Subscribe(0)
			done := make(chan int)
			go func() {
				n := 0
				for range subA.C() {
					n++
				}
				done <- n
			}()
			at, ac, amc := renderSweep(t, j, harness.ObserveCells("fig8sens", nil, nil, telA))
			telA.Bus.Unsubscribe(subA)
			if n := <-done; n == 0 {
				t.Error("active subscriber saw no lines")
			}

			// Stalled subscriber: buffer of 1, never read. The bus must drop
			// lines rather than stall the sweep.
			telS := harness.NewTelemetryExporter("restbench", nil)
			telS.Bus.Subscribe(1)
			st, sc, smc := renderSweep(t, j, harness.ObserveCells("fig8sens", nil, nil, telS))
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

// End-to-end over real HTTP: a sweep with -serve semantics exposes a valid
// snapshot, a stream carrying both document kinds, and net/http/pprof on the
// same address.
func TestServeEndToEnd(t *testing.T) {
	t.Parallel()
	tel := harness.NewTelemetryExporter("restbench", nil)
	ln, err := startTelemetryServer("127.0.0.1:0", tel, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	// Attach a streaming client before the sweep so it sees the span lines.
	resp, err := http.Get("http://" + addr + "/otlp/stream?interval=100ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string, 1024)
	go func() {
		r := bufio.NewReader(resp.Body)
		for {
			line, err := r.ReadString('\n')
			if s := strings.TrimSpace(line); s != "" {
				lines <- s
			}
			if err != nil {
				close(lines)
				return
			}
		}
	}()

	wls := testWorkloads(t)
	cfgs := harness.Fig8SensitivityConfigs()
	tel.AddSweep(len(wls) * len(cfgs))
	if _, err := harness.RunMatrixParallel(context.Background(), wls, cfgs, 1,
		harness.ParallelOptions{Workers: 4, OnCell: harness.ObserveCells("fig8sens", nil, nil, tel)}); err != nil {
		t.Fatalf("sweep: %v", err)
	}

	// Snapshot endpoint: valid document reflecting the finished sweep.
	mresp, err := http.Get("http://" + addr + "/otlp/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := otlp.ValidateDump(snap); err != nil || n != 1 {
		t.Fatalf("/otlp/metrics invalid: n=%d err=%v\n%.2000s", n, err, snap)
	}
	want := fmt.Sprintf(`"asInt": "%d"`, len(wls)*len(cfgs)) // MarshalIndent spacing
	if s := string(snap); !strings.Contains(s, "rest.sweep.live.cells_done") || !strings.Contains(s, want) {
		t.Errorf("snapshot missing live progress gauges:\n%.2000s", s)
	}

	// pprof shares the server: the index lists the profiles and cmdline
	// answers with this process's arguments.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("GET %s: status %d, %d bytes, err %v", path, resp.StatusCode, len(body), err)
		}
	}

	// Stream: every line validates; both kinds arrived.
	var spans, metrics int
	deadline := time.After(10 * time.Second)
collect:
	for spans < len(wls)*len(cfgs) || metrics == 0 {
		select {
		case line, ok := <-lines:
			if !ok {
				break collect
			}
			if err := otlp.ValidateLine([]byte(line)); err != nil {
				t.Fatalf("stream line invalid: %v\n%s", err, line)
			}
			if strings.Contains(line, "resourceSpans") {
				spans++
			} else {
				metrics++
			}
		case <-deadline:
			break collect
		}
	}
	if spans != len(wls)*len(cfgs) {
		t.Errorf("stream carried %d span lines, want %d", spans, len(wls)*len(cfgs))
	}
	if metrics == 0 {
		t.Errorf("stream carried no metrics snapshots")
	}
}

// /otlp/metrics is restbench's one live snapshot: its resource names the
// exact build, as -version prints it, and mid-sweep it carries the progress
// counts and the merged registries of the cells observed so far.
func TestServeMetricsCarryBuildAndProgress(t *testing.T) {
	t.Parallel()
	tel := harness.NewTelemetryExporter("restbench", nil)
	ln, err := startTelemetryServer("127.0.0.1:0", tel, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	tel.AddSweep(10)
	observe := harness.ObserveCells("fig7", nil, nil, tel)
	reg := obs.NewRegistry()
	reg.Counter("sim.user_instructions").Add(42)
	observe(harness.CellEvent{Workload: "lbm", Config: "plain", Obs: reg})
	observe(harness.CellEvent{Workload: "lbm", Config: "asan", Err: context.DeadlineExceeded})

	resp, err := http.Get("http://" + ln.Addr().String() + "/otlp/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var doc otlp.MetricsDoc
	if err := json.Unmarshal(snap, &doc); err != nil || len(doc.ResourceMetrics) != 1 {
		t.Fatalf("/otlp/metrics: %v, %d resources\n%.2000s", err, len(doc.ResourceMetrics), snap)
	}
	version := ""
	for _, kv := range doc.ResourceMetrics[0].Resource.Attributes {
		if kv.Key == "service.version" && kv.Value.StringValue != nil {
			version = *kv.Value.StringValue
		}
	}
	if want := obs.ReadBuild().String(); version != want {
		t.Errorf("/otlp/metrics service.version = %q, want %q", version, want)
	}

	values := make(map[string]string)
	for _, sm := range doc.ResourceMetrics[0].ScopeMetrics {
		for _, m := range sm.Metrics {
			switch {
			case m.Sum != nil && len(m.Sum.DataPoints) == 1:
				values[m.Name] = m.Sum.DataPoints[0].AsInt
			case m.Gauge != nil && len(m.Gauge.DataPoints) == 1:
				values[m.Name] = m.Gauge.DataPoints[0].AsInt
			}
		}
	}
	for name, want := range map[string]string{
		"harness.live.cells_total": "10", "harness.live.cells_done": "2",
		"harness.live.cells_holes": "1", "sim.user_instructions": "42",
	} {
		if got := values[otlp.SemanticName(name)]; got != want {
			t.Errorf("%s = %q, want %q", otlp.SemanticName(name), got, want)
		}
	}
}
