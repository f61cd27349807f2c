package harness

import (
	"sync"
	"time"

	"rest/internal/obs"
	"rest/internal/obs/otlp"
)

// TelemetryExporter is the streaming telemetry plane glued onto a sweep:
// it turns the engine's CellEvent stream into OTLP span lines on a
// subscriber Bus, keeps the live progress counts and merged cell registry
// current, and answers live snapshot queries for the /otlp/metrics
// endpoint (package otlphttp serves Snapshot and Bus). restnet (-serve),
// the telemetry differential tests and the exporter-overhead benchmark all
// share this one glue type, so what ships is what is measured.
//
// Everything here is read-only with respect to the sweep: the exporter
// hangs off ParallelOptions.OnCell (wall-clock facts, outside the
// determinism contract) and reads cache counters that are themselves
// snapshots. The byte-identical-report invariant therefore holds with any
// number of attached collectors — including stalled ones, because the Bus
// drops rather than blocks.
type TelemetryExporter struct {
	// Bus fans exported lines out to stream subscribers.
	Bus *otlp.Bus
	// Service names the OTLP resource.
	Service string
	// Start anchors every exported data point's start timestamp.
	Start time.Time
	// TraceCache, when attached, contributes its own and its store's live
	// counters to every snapshot (the same harness.trace_cache.* /
	// harness.diskcache.* names the end-of-sweep aggregate records).
	TraceCache *TraceCache

	// The live state, written from worker goroutines and read by HTTP
	// handlers. Finished cells' registries merge into agg as they complete;
	// merge is commutative, so the snapshot depends only on which cells
	// have finished, never on the order they did.
	mu                 sync.Mutex
	total, done, holes int
	agg                *obs.Registry
}

// NewTelemetryExporter builds an exporter for one command invocation.
func NewTelemetryExporter(service string, tc *TraceCache) *TelemetryExporter {
	return &TelemetryExporter{
		Bus:        otlp.NewBus(),
		Service:    service,
		Start:      time.Now(),
		TraceCache: tc,
		agg:        obs.NewRegistry(),
	}
}

// AddSweep registers one upcoming sweep's cell count with the live
// cells_total gauge. Nil-safe.
func (x *TelemetryExporter) AddSweep(cells int) {
	if x == nil {
		return
	}
	x.mu.Lock()
	x.total += cells
	x.mu.Unlock()
}

// observe folds one finished cell into the live state and publishes its
// span. reg is the cell's private registry (nil without Metrics), which
// finished cells never mutate again.
func (x *TelemetryExporter) observe(s otlp.CellSpan, reg *obs.Registry, res otlp.Resource) {
	x.mu.Lock()
	x.done++
	if s.Verdict != "ok" {
		x.holes++
	}
	// A bound mismatch is impossible by construction (every cell registers
	// through the same probe constructors); the live view is advisory, so
	// a failed merge degrades to a stale snapshot rather than an abort.
	_ = x.agg.Merge(reg)
	x.mu.Unlock()
	x.Bus.Publish(otlp.Line(otlp.EncodeSpans([]otlp.CellSpan{s}, res)))
}

// ObserveCells returns the CellEvent callback for one named sweep. It
// flattens each event into its span once and feeds every attached surface
// from it: the progress meter, the Catapult trace slice (category = sweep,
// args workload/config/verdict/instrs/cycles, which bench/restperf reads)
// and the exporter's live state and OTLP span stream. Each surface is
// optional; with none attached it returns nil, so an unobserved sweep pays
// nothing. The returned func is safe for concurrent use.
func ObserveCells(sweep string, meter *obs.Progress, tr *obs.Trace, x *TelemetryExporter) func(CellEvent) {
	if meter == nil && tr == nil && x == nil {
		return nil
	}
	var res otlp.Resource
	if x != nil {
		res = otlp.ServiceResource(x.Service)
	}
	return func(ev CellEvent) {
		s := CellEventSpan(sweep, ev)
		meter.Observe(s.Verdict == "ok")
		if tr != nil {
			tr.Slice(ev.Worker, ev.Workload+"/"+ev.Config, sweep, ev.Start, ev.End, map[string]any{
				"workload": ev.Workload, "config": ev.Config,
				"verdict": s.Verdict, "instrs": ev.Instrs, "cycles": ev.Cycles,
			})
		}
		if x != nil {
			x.observe(s, ev.Obs, res)
		}
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

// Snapshot assembles the live metric view /otlp/metrics and the stream
// serve: the live progress gauges, the stream's own counters, the cache
// planes' current counters, and the finished cells' merged registries (when
// the sweep collects them). Nil-safe.
func (x *TelemetryExporter) Snapshot() []obs.Metric {
	if x == nil {
		return nil
	}
	reg := obs.NewRegistry()
	x.mu.Lock()
	reg.Gauge("harness.live.cells_total").Set(uint64(x.total))
	reg.Gauge("harness.live.cells_done").Set(uint64(x.done))
	reg.Gauge("harness.live.cells_holes").Set(uint64(x.holes))
	// Cell registries never carry harness.* series, so this merge
	// can never double-count the counters recorded around it.
	_ = reg.Merge(x.agg)
	x.mu.Unlock()
	published, dropped := x.Bus.Counters()
	reg.Counter("harness.live.stream_published").Add(published)
	reg.Counter("harness.live.stream_dropped").Add(dropped)
	if x.TraceCache != nil {
		x.TraceCache.recordObs(reg)
		x.TraceCache.recordDiskObs(reg)
	}
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
