package harness

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"rest/internal/obs"
	"rest/internal/obs/otlp"
	"rest/internal/persist"
	"rest/internal/prog"
	"rest/internal/workload"
)

// fig7Grid and sensGrid subset their sweep grids under the race detector,
// following the package convention of trimming sweep sizes when races are
// being checked (the assertions below need variety, not the full matrix).
func fig7Grid() []BinaryConfig {
	cfgs := Fig7Configs()
	if raceEnabled && len(cfgs) > 3 {
		cfgs = cfgs[:3]
	}
	return cfgs
}

func sensGrid() []BinaryConfig {
	cfgs := Fig8SensitivityConfigs()
	if raceEnabled {
		cfgs = cfgs[:len(cfgs)/2]
	}
	return cfgs
}

// observed is one OnCell call: a cell's span and its registry.
type observed struct {
	obs.CellSpan
	reg *obs.Registry
}

// collectEvents runs one sweep and returns what OnCell saw, in arrival
// order.
func collectEvents(t *testing.T, cfgs []BinaryConfig, opt ParallelOptions) []observed {
	t.Helper()
	var mu sync.Mutex
	var evs []observed
	opt.OnCell = func(s obs.CellSpan, reg *obs.Registry) {
		mu.Lock()
		evs = append(evs, observed{s, reg})
		mu.Unlock()
	}
	wls := subset(t, "lbm", "xalanc")
	if _, err := RunMatrixParallel(context.Background(), wls, cfgs, 1, opt); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return evs
}

// tickClock returns an event clock that starts at base and moves one
// millisecond at each reading, safe for concurrent use.
func tickClock(base time.Time) func() time.Time {
	var mu sync.Mutex
	tick := 0
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		tick++
		return base.Add(time.Duration(tick) * time.Millisecond)
	}
}

// The event clock is injectable: every Start/End timestamp must come from
// opt.Now, making span exports byte-stable under test.
func TestCellEventInjectedClock(t *testing.T) {
	t.Parallel()
	base := time.Unix(1700000000, 0)
	evs := collectEvents(t, fig7Grid(), ParallelOptions{Workers: 2, Now: tickClock(base)})
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	for _, ev := range evs {
		if ev.Start.Before(base) || ev.End.Before(ev.Start) {
			t.Errorf("cell %s/%s: timestamps %v..%v not from injected clock",
				ev.Workload, ev.Config, ev.Start, ev.End)
		}
	}
}

// Source tags must follow the result's actual provenance through the cache
// tiers: live stream/capture/replay in memory, result-store across
// processes.
func TestCellEventSourceTags(t *testing.T) {
	t.Parallel()

	// No cache: every cell streams.
	for _, ev := range collectEvents(t, fig7Grid(), ParallelOptions{Workers: 2}) {
		if ev.Source != "stream" {
			t.Errorf("uncached cell %s/%s tagged %q, want stream", ev.Workload, ev.Config, ev.Source)
		}
	}

	// In-memory trace cache over a timing-only grid (the sharing the cache
	// exists for): captures and replays appear.
	tags := map[string]int{}
	for _, ev := range collectEvents(t, sensGrid(), ParallelOptions{Workers: 2, TraceCache: NewTraceCache()}) {
		tags[ev.Source]++
	}
	if tags["capture"] == 0 || tags["replay"] == 0 {
		t.Errorf("trace-cached sweep sources = %v, want captures and replays", tags)
	}
	if tags[""] > 0 {
		t.Errorf("successful cells with empty source: %v", tags)
	}

	// Warm persistent cache: a second sweep over the same grid must serve
	// from the result store.
	dir := t.TempDir()
	coldTC, _ := diskTC(t, dir, persist.Options{})
	collectEvents(t, sensGrid(), ParallelOptions{Workers: 2, TraceCache: coldTC})
	warmTC, _ := diskTC(t, dir, persist.Options{})
	warm := map[string]int{}
	for _, ev := range collectEvents(t, sensGrid(), ParallelOptions{Workers: 2, TraceCache: warmTC}) {
		warm[ev.Source]++
	}
	if warm["result-store"] == 0 {
		t.Errorf("warm sweep sources = %v, want result-store hits", warm)
	}
	if warm["stream"]+warm["capture"] > 0 {
		t.Errorf("warm sweep re-executed cells: %v", warm)
	}
}

// A capture's replays run on the worker that captured it, after it: the
// grid's functional identities are groups run on one worker each, so no
// worker waits on another's capture. Four workers for the four groups of
// two workloads leave the pool every chance to spread a group's cells.
func TestReplaysStayOnTheirCaptureWorker(t *testing.T) {
	t.Parallel()
	cfgs := sensGrid()
	evs := collectEvents(t, cfgs, ParallelOptions{
		Workers: 4, TraceCache: NewTraceCache(), Now: tickClock(time.Unix(1700000000, 0)),
	})
	byName := map[string]BinaryConfig{}
	for _, cfg := range cfgs {
		byName[cfg.Name] = cfg
	}
	identity := func(ev observed) traceKey { return cellTraceKey(ev.Workload, byName[ev.Config], 1, 0) }
	captures := map[traceKey]observed{}
	for _, ev := range evs {
		if ev.Source == "capture" {
			captures[identity(ev)] = ev
		}
	}
	replays := 0
	for _, ev := range evs {
		if ev.Source != "replay" {
			continue
		}
		replays++
		c, ok := captures[identity(ev)]
		switch {
		case !ok:
			t.Errorf("replay %s/%s: no capture of its identity", ev.Workload, ev.Config)
		case ev.Worker != c.Worker:
			t.Errorf("replay %s/%s ran on worker %d, its capture %s on worker %d",
				ev.Workload, ev.Config, ev.Worker, c.Config, c.Worker)
		case ev.Start.Before(c.End):
			t.Errorf("replay %s/%s started at %v, before its capture %s ended at %v",
				ev.Workload, ev.Config, ev.Start, c.Config, c.End)
		}
	}
	if want := len(evs) - len(captures); replays != want {
		t.Errorf("%d replays, want every cell but the %d captures (%d)", replays, len(captures), want)
	}
}

// Obs rides the event stream only when the sweep collects metrics.
func TestCellEventObsAttachment(t *testing.T) {
	t.Parallel()
	for _, ev := range collectEvents(t, fig7Grid(), ParallelOptions{Workers: 2}) {
		if ev.reg != nil {
			t.Fatalf("cell %s/%s carries a registry without Metrics", ev.Workload, ev.Config)
		}
	}
	for _, ev := range collectEvents(t, fig7Grid(), ParallelOptions{Workers: 2, Metrics: true}) {
		if ev.reg == nil {
			t.Fatalf("cell %s/%s missing registry with Metrics on", ev.Workload, ev.Config)
		}
		findMetric(t, ev.reg.Snapshot(), "sim.user_instructions")
	}
}

// The exporter glue end to end: events reach the exporter through the sink
// ObserveCells is given and drive its live state, every published line
// validates, and the snapshot carries progress gauges plus the trace
// cache's counters.
func TestTelemetryExporterOnSweep(t *testing.T) {
	t.Parallel()
	tc := NewTraceCache()
	tel := otlp.NewExporter("restbench-test", tc.RecordCounters)
	sub := tel.Bus.Subscribe(4096)

	wls := subset(t, "lbm", "xalanc")
	cfgs := sensGrid()
	cells := len(wls) * len(cfgs)
	tel.AddSweep(cells)
	_, err := RunMatrixParallel(context.Background(), wls, cfgs, 1, ParallelOptions{
		Workers:    2,
		TraceCache: tc,
		Metrics:    true,
		OnCell:     ObserveCells("fig7", nil, nil, tel.Observe),
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}

	// Every streamed line is a valid OTLP document; one span per cell.
	tel.Bus.Unsubscribe(sub)
	spans := 0
	for line := range sub.C() {
		if err := otlp.ValidateLine(line); err != nil {
			t.Fatalf("published line invalid: %v\n%s", err, line)
		}
		if strings.Contains(string(line), "resourceSpans") {
			spans++
		}
	}
	if spans != cells {
		t.Errorf("published %d span lines, want %d", spans, cells)
	}
	if pub, dropped := tel.Bus.Counters(); pub != uint64(cells) || dropped != 0 {
		t.Errorf("bus counters = %d published, %d dropped; want %d, 0", pub, dropped, cells)
	}

	// The snapshot merges progress gauges, cache counters and the live
	// per-cell aggregate, and encodes to a valid document.
	snap := tel.Snapshot()
	for name, want := range map[string]int{
		"harness.live.cells_total": cells, "harness.live.cells_done": cells, "harness.live.cells_holes": 0,
	} {
		if m := findMetric(t, snap, name); m.Value != uint64(want) {
			t.Errorf("%s gauge = %d, want %d", name, m.Value, want)
		}
	}
	findMetric(t, snap, "harness.trace_cache.hits")
	findMetric(t, snap, "sim.user_instructions")
	doc := otlp.Line(otlp.EncodeMetrics(snap, otlp.ServiceResource("restbench-test"), time.Unix(0, 0), time.Unix(1, 0)))
	if err := otlp.ValidateMetrics(doc); err != nil {
		t.Fatalf("exporter snapshot does not encode to valid OTLP: %v", err)
	}

	// The meter stats roll up the cache tiers.
	if st := tc.ProgressStats(); st.CacheLookups == 0 || st.CacheHits == 0 {
		t.Errorf("progress stats empty after a cached sweep: %+v", st)
	}
}

// The sweep flattens each cell into its span the way the dashboard
// expects: a result is "ok" with its source, instructions and cycles, a
// failure a "hole" with the Matrix's reason, and a cell never started after
// a fail-fast cancellation "skipped".
func TestCellEventSpanVerdicts(t *testing.T) {
	t.Parallel()
	// One worker takes the cells in grid order: overflower/plain succeeds,
	// overflower/secure-heap fails, and both lbm cells are skipped.
	var spans []obs.CellSpan
	m, err := RunMatrixParallel(context.Background(),
		[]workload.Workload{overflowWorkload("overflower"), goodWorkload(t)},
		[]BinaryConfig{{Name: "plain", Pass: prog.Plain()}, {Name: "secure-heap", Pass: prog.RESTHeap(64)}},
		1, ParallelOptions{Workers: 1, FailFast: true, OnCell: func(s obs.CellSpan, _ *obs.Registry) { spans = append(spans, s) }})
	if err == nil || len(spans) != 4 {
		t.Fatalf("got %d spans and error %v; want 4 and a MatrixError", len(spans), err)
	}
	ok := m.Result("overflower", "plain")
	if s := spans[0]; s.Verdict != "ok" || s.Reason != "" || s.Source != "stream" ||
		s.Instrs != ok.Stats.Instructions || s.Cycles != ok.Stats.Cycles {
		t.Errorf("ok span: %+v", s)
	}
	reason, _ := m.Hole("overflower", "secure-heap")
	if s := spans[1]; s.Verdict != "hole" || s.Reason != reason || !strings.Contains(reason, "detect") || s.Source != "" {
		t.Errorf("hole span: %+v, want reason %q", s, reason)
	}
	for _, s := range spans[2:] {
		if s.Verdict != "skipped" || s.Reason != "sweep cancelled" || s.Start != s.End {
			t.Errorf("skipped span: %+v", s)
		}
	}

	// With no surface attached (a nil sink: no live telemetry) there is no
	// callback to call, and a cache that was never consulted reports no
	// lookups to the meter.
	if ObserveCells("fig7", nil, nil, nil) != nil {
		t.Error("an observer with no surface returned a callback")
	}
	if st := NewTraceCache().ProgressStats(); st != (obs.ProgressStats{}) {
		t.Errorf("unused cache stats: %+v", st)
	}

	// A sink alone gets every cell's span, stamped with the sweep name, and
	// its registry.
	var got []obs.CellSpan
	var regs []*obs.Registry
	sink := ObserveCells("fig7", nil, nil, func(s obs.CellSpan, reg *obs.Registry) {
		got = append(got, s)
		regs = append(regs, reg)
	})
	reg := obs.NewRegistry()
	sink(obs.CellSpan{Workload: "lbm", Config: "plain", Verdict: "ok", Cycles: 9}, reg)
	sink(obs.CellSpan{Verdict: "hole", Reason: "panic: boom"}, nil)
	if len(got) != 2 || got[0].Sweep != "fig7" || got[0].Cycles != 9 || got[1].Sweep != "fig7" ||
		got[1].Reason != "panic: boom" || regs[0] != reg || regs[1] != nil {
		t.Errorf("sink saw spans %+v and registries %v", got, regs)
	}
}

// What /otlp/metrics serves reflects every finished cell mid-sweep, not
// only the sweep's end: a cell's registry counts as soon as its event is
// observed, a second cell accumulates onto it, and a hole counts in the
// holes gauge.
func TestTelemetryExporterMergesMidSweep(t *testing.T) {
	t.Parallel()
	tel := otlp.NewExporter("restbench-test", nil)
	tel.AddSweep(4)
	observe := ObserveCells("fig7", nil, nil, tel.Observe)
	value := func(name string) uint64 { return findMetric(t, tel.Snapshot(), name).Value }
	span := obs.CellSpan{Workload: "lbm", Config: "plain", Verdict: "ok"}
	cell := func(cycles uint64) *obs.Registry {
		reg := obs.NewRegistry()
		reg.Counter("cpu.cycles").Add(cycles)
		return reg
	}

	observe(span, cell(100))
	if got := value("cpu.cycles"); got != 100 {
		t.Fatalf("after one cell, cpu.cycles = %d, want 100", got)
	}
	observe(span, cell(50))
	if got := value("cpu.cycles"); got != 150 {
		t.Fatalf("after two cells, cpu.cycles = %d, want 150", got)
	}
	observe(obs.CellSpan{Workload: "lbm", Config: "asan", Verdict: "hole", Reason: "watchdog: wall-clock budget exceeded (1s)"}, nil)
	for name, want := range map[string]uint64{
		"harness.live.cells_total": 4, "harness.live.cells_done": 3, "harness.live.cells_holes": 1, "cpu.cycles": 150,
	} {
		if got := value(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
