package otlp

import (
	"sync"
	"time"

	"rest/internal/obs"
)

// Exporter is the live telemetry plane glued onto a sweep: it turns finished
// cells into OTLP span lines on a subscriber Bus, keeps the live progress
// counts and merged cell registry current, and answers live snapshot queries
// for the /otlp/metrics endpoint (package otlphttp serves Snapshot and Bus).
// restnet (-serve), the telemetry differential tests and the exporter-
// overhead benchmark all share this one type, so what ships is what is
// measured.
//
// Everything here is read-only with respect to the sweep: Observe is a cell
// sink (the harness's ObserveCells calls it with wall-clock facts, outside
// the determinism contract), and the counters a snapshot reads are
// themselves snapshots. The byte-identical-report invariant therefore holds
// with any number of attached collectors — including stalled ones, because
// the Bus drops rather than blocks.
type Exporter struct {
	// Bus fans exported lines out to stream subscribers.
	Bus *Bus
	// Service names the OTLP resource.
	Service string
	// Start anchors every exported data point's start timestamp.
	Start time.Time

	res      Resource
	counters func(*obs.Registry)

	// The live state, written from worker goroutines and read by HTTP
	// handlers. Finished cells' registries merge into agg as they complete;
	// merge is commutative, so the snapshot depends only on which cells
	// have finished, never on the order they did.
	mu                 sync.Mutex
	total, done, holes int
	agg                *obs.Registry
}

// NewExporter builds an exporter for one command invocation. counters, when
// non-nil, records the caches' live counters into every snapshot (the trace
// cache's RecordCounters: the same harness.trace_cache.* and
// harness.diskcache.* names the end-of-sweep aggregate records).
func NewExporter(service string, counters func(*obs.Registry)) *Exporter {
	return &Exporter{
		Bus:      NewBus(),
		Service:  service,
		Start:    time.Now(),
		res:      ServiceResource(service),
		counters: counters,
		agg:      obs.NewRegistry(),
	}
}

// AddSweep registers one upcoming sweep's cell count with the live
// cells_total gauge.
func (x *Exporter) AddSweep(cells int) {
	x.mu.Lock()
	x.total += cells
	x.mu.Unlock()
}

// Observe folds one finished cell into the live state and publishes its
// span. reg is the cell's private registry (nil without Metrics), which
// finished cells never mutate again. Safe for concurrent use.
func (x *Exporter) Observe(s obs.CellSpan, reg *obs.Registry) {
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
	x.Bus.Publish(Line(EncodeSpans([]obs.CellSpan{s}, x.res)))
}

// Snapshot assembles the live metric view /otlp/metrics and the stream
// serve: the live progress gauges, the stream's own counters, the caches'
// current counters, and the finished cells' merged registries (when the
// sweep collects them).
func (x *Exporter) Snapshot() []obs.Metric {
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
	if x.counters != nil {
		x.counters(reg)
	}
	return reg.Snapshot()
}
