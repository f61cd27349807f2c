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

// End-to-end over real HTTP: a sweep with -serve semantics exposes a valid
// snapshot, a stream carrying both document kinds, and net/http/pprof on the
// same address.
func TestServeEndToEnd(t *testing.T) {
	t.Parallel()
	tel := otlp.NewExporter("restbench", nil)
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
		harness.ParallelOptions{Workers: 4, OnCell: harness.ObserveCells("fig8sens", nil, nil, tel.Observe)}); err != nil {
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
	tel := otlp.NewExporter("restbench", nil)
	ln, err := startTelemetryServer("127.0.0.1:0", tel, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	tel.AddSweep(10)
	observe := harness.ObserveCells("fig7", nil, nil, tel.Observe)
	reg := obs.NewRegistry()
	reg.Counter("sim.user_instructions").Add(42)
	observe(obs.CellSpan{Workload: "lbm", Config: "plain", Verdict: "ok"}, reg)
	observe(obs.CellSpan{Workload: "lbm", Config: "asan", Verdict: "hole", Reason: "watchdog: wall-clock budget exceeded (1s)"}, nil)

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
