package main

import (
	"strings"
	"testing"
	"time"

	"rest/internal/obs"
	"rest/internal/obs/otlp"
)

var (
	w0 = time.Unix(1700000000, 0).UTC()
	w1 = time.Unix(1700000010, 0).UTC()
)

func watchMetricsLine(t *testing.T, fill func(*obs.Registry)) []byte {
	t.Helper()
	r := obs.NewRegistry()
	fill(r)
	return otlp.Line(otlp.EncodeMetrics(r.Snapshot(), otlp.ServiceResource("restbench"), w0, w1))
}

func watchSpanLine(t *testing.T, cells ...obs.CellSpan) []byte {
	t.Helper()
	return otlp.Line(otlp.EncodeSpans(cells, otlp.ServiceResource("restbench")))
}

// The dashboard model ingests exactly what the wire carries and renders the
// operator's view: progress, cache rates, verdicts, per-worker activity.
func TestWatchStateIngestAndRender(t *testing.T) {
	st := newWatchState()
	st.started = w0

	if err := st.ingest(watchMetricsLine(t, func(r *obs.Registry) {
		r.Gauge("harness.live.cells_total").Set(8)
		r.Gauge("harness.live.cells_done").Set(4)
		r.Gauge("harness.live.cells_holes").Set(1)
		r.Counter("harness.live.stream_published").Add(4)
		r.Counter("harness.trace_cache.hits").Add(3)
		r.Counter("harness.trace_cache.misses").Add(1)
		r.Counter("harness.diskcache.result_hits").Add(2)
		r.Counter("harness.diskcache.result_misses").Add(2)
	})); err != nil {
		t.Fatal(err)
	}
	if err := st.ingest(watchSpanLine(t,
		obs.CellSpan{Sweep: "fig8sens", Worker: 0, Index: 0, Total: 8, Workload: "lbm",
			Config: "baseline", Start: w0, End: w1, Verdict: "ok", Source: "capture", Cycles: 1000},
		obs.CellSpan{Sweep: "fig8sens", Worker: 1, Index: 1, Total: 8, Workload: "xalanc",
			Config: "l2slow", Start: w0, End: w1, Verdict: "hole", Reason: "cell timeout"},
	)); err != nil {
		t.Fatal(err)
	}

	out := st.render(w0.Add(20 * time.Second))
	for _, want := range []string{
		"restbench",                  // service name from the resource
		"sweep fig8sens",             // sweep from span attrs
		"4/8 cells (50%), 1 holes",   // live gauges
		"eta 20s",                    // 4 done in 20s -> 4 left in 20s
		"trace 75% (3/4)",            // trace cache rate
		"disk-result 50% (2/4)",      // disk result rate
		"2 spans seen (ok 1, hole 1", // verdict tally
		"last hole: hole: cell timeout",
		"w0", "lbm/baseline", "via capture",
		"w1", "xalanc/l2slow", "via -", // failed cell has no source
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
}

func TestWatchStateUpdatesAcrossSnapshots(t *testing.T) {
	st := newWatchState()
	for done := uint64(1); done <= 3; done++ {
		done := done
		if err := st.ingest(watchMetricsLine(t, func(r *obs.Registry) {
			r.Gauge("harness.live.cells_total").Set(3)
			r.Gauge("harness.live.cells_done").Set(done)
		})); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.render(w1); !strings.Contains(got, "3/3 cells (100%)") {
		t.Errorf("later snapshots must supersede earlier ones:\n%s", got)
	}
	// Same worker across spans: the row accumulates rather than duplicates.
	for i := 0; i < 3; i++ {
		if err := st.ingest(watchSpanLine(t, obs.CellSpan{
			Sweep: "fig7", Worker: 2, Index: i, Total: 3, Workload: "mcf", Config: "plain",
			Start: w0, End: w1, Verdict: "ok", Source: "stream",
		})); err != nil {
			t.Fatal(err)
		}
	}
	out := st.render(w1)
	if !strings.Contains(out, "w2     3 cells") {
		t.Errorf("worker row did not accumulate:\n%s", out)
	}
	if strings.Count(out, "w2 ") > 1 {
		t.Errorf("duplicate worker rows:\n%s", out)
	}
}

func TestWatchStateRejectsGarbageKeepsUnknownShapes(t *testing.T) {
	st := newWatchState()
	if err := st.ingest([]byte("not json")); err == nil {
		t.Error("garbage line ingested without error")
	}
	if err := st.ingest([]byte("")); err != nil {
		t.Errorf("blank line: %v", err)
	}
	// Unknown-but-valid JSON is tolerated (forward compatibility).
	if err := st.ingest([]byte(`{"resourceLogs":[]}`)); err != nil {
		t.Errorf("unknown document kind: %v", err)
	}
	// Rendering an empty model must not panic and shows zero progress.
	if out := st.render(w1); !strings.Contains(out, "0/0 cells") {
		t.Errorf("empty dashboard: %s", out)
	}
}
