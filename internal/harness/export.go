package harness

import (
	"sync"
	"time"

	"rest/internal/obs"
	"rest/internal/obs/otlp"
)

// TelemetryExporter is the streaming telemetry plane glued onto a sweep:
// it turns the engine's CellEvent stream into OTLP span lines on a
// subscriber Bus, keeps the obs.Live progress/metric state current, and
// answers live snapshot queries for the /otlp/metrics endpoint and the
// expvar "rest" key. restbench (-serve/-pprof), the telemetry differential
// tests and the exporter-overhead benchmark all share this one glue type,
// so what ships is what is measured.
//
// Everything here is read-only with respect to the sweep: the exporter
// hangs off ParallelOptions.OnCell (wall-clock facts, outside the
// determinism contract) and reads cache counters that are themselves
// snapshots. The byte-identical-report invariant therefore holds with any
// number of attached collectors — including stalled ones, because the Bus
// drops rather than blocks.
type TelemetryExporter struct {
	// Live carries progress counts and the merged live registry (also the
	// expvar payload). Created by NewTelemetryExporter.
	Live *obs.Live
	// Bus fans exported lines out to stream subscribers.
	Bus *otlp.Bus
	// Service names the OTLP resource.
	Service string
	// Start anchors every exported data point's start timestamp.
	Start time.Time
	// TraceCache/Disk, when attached, contribute live cache counters to
	// every snapshot (the same harness.trace_cache.* / harness.diskcache.*
	// / persist.* names the end-of-sweep aggregate records).
	TraceCache *TraceCache
	// Now is the export clock (nil = time.Now), injected in tests.
	Now func() time.Time

	mu     sync.Mutex
	totals map[string]int // per-sweep planned cell counts, for the live gauges
}

// NewTelemetryExporter builds an exporter for one restbench invocation.
func NewTelemetryExporter(service string, tc *TraceCache) *TelemetryExporter {
	return &TelemetryExporter{
		Live:       &obs.Live{},
		Bus:        otlp.NewBus(),
		Service:    service,
		Start:      time.Now(),
		TraceCache: tc,
	}
}

func (x *TelemetryExporter) now() time.Time {
	if x.Now != nil {
		return x.Now()
	}
	return time.Now()
}

// AddSweep registers one upcoming sweep's grid size (mirrors
// Live.AddTotal, which it also calls). Nil-safe.
func (x *TelemetryExporter) AddSweep(name string, cells int) {
	if x == nil {
		return
	}
	x.Live.AddTotal(cells)
	x.mu.Lock()
	if x.totals == nil {
		x.totals = make(map[string]int)
	}
	x.totals[name] += cells
	x.mu.Unlock()
}

// OnCell returns the event callback for one named sweep: each finished
// cell updates the Live state and is published as one OTLP span line.
// The returned func is safe for concurrent use (the Bus and Live carry the
// locks). Nil-safe: a nil exporter returns nil, disabling the stream.
func (x *TelemetryExporter) OnCell(sweep string) func(CellEvent) {
	if x == nil {
		return nil
	}
	res := otlp.ServiceResource(x.Service)
	return func(ev CellEvent) {
		ok := ev.Err == nil && !ev.Skipped
		x.Live.ObserveCell(ok)
		x.Live.MergeObs(ev.Obs)
		x.Bus.Publish(otlp.Line(otlp.EncodeSpans([]otlp.CellSpan{CellEventSpan(sweep, ev)}, res)))
	}
}

// CellEventSpan flattens one CellEvent into the exporter-facing span shape.
func CellEventSpan(sweep string, ev CellEvent) otlp.CellSpan {
	s := otlp.CellSpan{
		Sweep:    sweep,
		Worker:   ev.Worker,
		Index:    ev.Index,
		Total:    ev.Total,
		Workload: ev.Workload,
		Config:   ev.Config,
		Start:    ev.Start,
		End:      ev.End,
		Verdict:  "ok",
		Source:   ev.Source,
		Instrs:   ev.Instrs,
		Cycles:   ev.Cycles,
	}
	switch {
	case ev.Skipped:
		s.Verdict, s.Reason = "skipped", "sweep cancelled"
	case ev.Err != nil:
		s.Verdict, s.Reason = "hole", holeReason(ev.Err)
	}
	return s
}

// Snapshot assembles the live metric view every export surface serves: the
// merged per-cell registries (when the sweep collects them), the live
// progress gauges, and the cache planes' current counters. Nil-safe.
func (x *TelemetryExporter) Snapshot() []obs.Metric {
	if x == nil {
		return nil
	}
	reg := obs.NewRegistry()
	total, done, holes := x.Live.Progress()
	reg.Gauge("harness.live.cells_total").Set(uint64(total))
	reg.Gauge("harness.live.cells_done").Set(uint64(done))
	reg.Gauge("harness.live.cells_holes").Set(uint64(holes))
	published, dropped := x.Bus.Counters()
	reg.Counter("harness.live.stream_published").Add(published)
	reg.Counter("harness.live.stream_dropped").Add(dropped)
	if x.TraceCache != nil {
		x.TraceCache.recordObs(reg)
		x.TraceCache.recordDiskObs(reg)
	}
	// The live per-completion aggregate (cells merged as they finish; only
	// populated when the sweep collects per-cell registries). Cell
	// registries never carry harness.*/persist.* series, so this merge can
	// never double-count the counters recorded above.
	x.Live.MergeInto(reg)
	return reg.Snapshot()
}

// ProgressStats summarizes cache activity across the attached tiers for
// the stderr meter's "cache N% hit" field. Nil-safe.
func (x *TelemetryExporter) ProgressStats() obs.ProgressStats {
	if x == nil || x.TraceCache == nil {
		return obs.ProgressStats{}
	}
	hits, misses, _ := x.TraceCache.Counters()
	dc := x.TraceCache.DiskCounters()
	return obs.ProgressStats{
		CacheHits:    hits + dc.ResultHits,
		CacheLookups: hits + misses + dc.ResultHits + dc.ResultMisses,
	}
}

// Source builds the HTTP export surface backed by this exporter.
func (x *TelemetryExporter) Source() *otlp.Source {
	return &otlp.Source{
		Service:  x.Service,
		Snapshot: x.Snapshot,
		Bus:      x.Bus,
		Start:    x.Start,
		Now:      x.Now,
	}
}
