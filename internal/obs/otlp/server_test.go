// The HTTP export surface's tests. Source lives in package otlphttp (only
// network builds link it); its tests stay here, as an external test
// package, next to the encoders and validators whose documents they check.
package otlp_test

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rest/internal/obs"
	"rest/internal/obs/otlp"
	"rest/internal/obs/otlp/otlphttp"
)

func testSource(bus *otlp.Bus) *otlphttp.Source {
	return &otlphttp.Source{
		Service:  "restbench-test",
		Snapshot: func() []obs.Metric { return otlp.SampleRegistry().Snapshot() },
		Bus:      bus,
		Start:    otlp.T0,
		Now:      func() time.Time { return otlp.T1 },
		Interval: time.Hour, // keep periodic pushes out of the way
	}
}

func newTestServer(t *testing.T, bus *otlp.Bus) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	testSource(bus).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t, otlp.NewBus())
	resp, err := http.Get(srv.URL + "/otlp/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var body strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	if n, err := otlp.ValidateDump([]byte(body.String())); err != nil || n != 1 {
		t.Errorf("snapshot invalid: n=%d err=%v\n%s", n, err, body.String())
	}
	if !strings.Contains(body.String(), "rest.sim.cpu.cycles") {
		t.Errorf("snapshot missing semantic metric name:\n%s", body.String())
	}
}

// lineChan pumps the stream's non-empty lines onto a channel so tests can
// read with a deadline. One pump per connection: a second reader on the same
// bufio.Reader would steal lines.
func lineChan(r *bufio.Reader) <-chan string {
	out := make(chan string, 64)
	go func() {
		for {
			line, err := r.ReadString('\n')
			if line = strings.TrimSpace(line); line != "" {
				out <- line
			}
			if err != nil {
				close(out)
				return
			}
		}
	}()
	return out
}

// readLines reads n framed lines from the pump with a deadline.
func readLines(t *testing.T, out <-chan string, n int) []string {
	t.Helper()
	var lines []string
	for len(lines) < n {
		select {
		case line, ok := <-out:
			if !ok {
				t.Fatalf("stream closed after %d lines, want %d", len(lines), n)
			}
			lines = append(lines, line)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d lines, want %d", len(lines), n)
		}
	}
	return lines
}

func TestStreamNDJSON(t *testing.T) {
	bus := otlp.NewBus()
	srv := newTestServer(t, bus)
	resp, err := http.Get(srv.URL + "/otlp/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := lineChan(bufio.NewReader(resp.Body))

	// First line is always a metrics snapshot.
	first := readLines(t, lines, 1)[0]
	if err := otlp.ValidateMetrics([]byte(first)); err != nil {
		t.Fatalf("first stream line is not a metrics doc: %v", err)
	}

	// Published spans arrive on the live feed. Wait for the subscriber to
	// attach before publishing — Subscribe only sees later lines.
	deadline := time.Now().Add(5 * time.Second)
	for bus.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	span := otlp.Line(otlp.EncodeSpans([]obs.CellSpan{{
		Sweep: "fig7", Index: 3, Total: 9, Workload: "lbm", Config: "plain",
		Start: otlp.T0, End: otlp.T1, Verdict: "ok", Source: "stream",
	}}, otlp.ServiceResource("restbench-test")))
	bus.Publish(span)
	got := readLines(t, lines, 1)[0]
	if err := otlp.ValidateSpans([]byte(got)); err != nil {
		t.Fatalf("streamed span line invalid: %v\n%s", err, got)
	}
	if !strings.Contains(got, "rest.cell lbm/plain") {
		t.Errorf("streamed line is not the published span: %s", got)
	}
}

func TestStreamSSEFraming(t *testing.T) {
	bus := otlp.NewBus()
	srv := newTestServer(t, bus)
	resp, err := http.Get(srv.URL + "/otlp/stream?sse=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	first := readLines(t, lineChan(bufio.NewReader(resp.Body)), 1)[0]
	if !strings.HasPrefix(first, "data: ") {
		t.Fatalf("SSE line missing data: framing: %q", first)
	}
	if err := otlp.ValidateMetrics([]byte(strings.TrimPrefix(first, "data: "))); err != nil {
		t.Errorf("SSE payload invalid: %v", err)
	}
	if n, err := otlp.ValidateDump([]byte(first + "\n")); err != nil || n != 1 {
		t.Errorf("ValidateDump on SSE capture: n=%d err=%v", n, err)
	}
}

func TestStreamSubscriberDetaches(t *testing.T) {
	bus := otlp.NewBus()
	srv := newTestServer(t, bus)
	resp, err := http.Get(srv.URL + "/otlp/stream")
	if err != nil {
		t.Fatal(err)
	}
	readLines(t, lineChan(bufio.NewReader(resp.Body)), 1)
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for bus.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber still attached after client disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}
