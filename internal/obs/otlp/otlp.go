// Package otlp renders the observability plane's registry snapshots and
// cell-event stream in OTLP-compatible JSON — the OpenTelemetry protocol's
// canonical JSON encoding (protobuf JSON mapping: 64-bit integers and
// nanosecond timestamps as decimal strings) — so external collectors can
// scrape or stream a running sweep with no code changes in the observed
// process and no stdout contamination.
//
// The package follows the opentelemetry-go-instrumentation design point:
// telemetry is an export surface bolted onto the side of the process, never
// a participant in it. Nothing here is imported by the simulation or report
// paths; the byte-identical-report invariant cannot depend on whether an
// exporter is attached, because the exporter only ever reads.
//
// Three wire shapes are produced:
//
//   - MetricsDoc: one ExportMetricsServiceRequest-shaped document holding a
//     full registry snapshot (counters as monotonic cumulative sums, gauges
//     as gauges, histograms with explicit bounds).
//   - SpansDoc: one ExportTraceServiceRequest-shaped document holding
//     per-cell spans derived from the sweep engine's CellEvent stream
//     (start/end wall clock, worker, verdict, cache source, instruction and
//     cycle counts as attributes).
//   - The NDJSON/SSE stream served by Source: each line is one complete
//     MetricsDoc or SpansDoc, distinguished by its top-level key.
//
// Internal registry names are translated to semantic-convention-style
// names under the "rest." namespace by SemanticName; the mapping table is
// documented in EXPERIMENTS.md.
package otlp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"rest/internal/obs"
)

// ScopeName identifies the instrumentation scope in every exported
// document; ScopeVersion tracks the wire layout this package emits.
const (
	ScopeName    = "rest/internal/obs/otlp"
	ScopeVersion = "v1"
)

// semanticPrefixes maps internal registry prefixes to exported semantic
// namespaces, longest (most specific) prefix first. Everything the
// simulator proper emits lives under rest.sim.*; the two artifact-cache
// tiers under rest.cache.*; the storage fault plane under rest.persist.*;
// sweep bookkeeping under rest.sweep.*.
var semanticPrefixes = []struct{ from, to string }{
	{"harness.trace_cache.", "rest.cache.trace."},
	{"harness.diskcache.", "rest.cache.disk."},
	{"harness.", "rest.sweep."},
	{"persist.httpbackend.", "rest.persist.http."},
	{"persist.", "rest.persist."},
	{"sim.blockcache.", "rest.sim.blockcache."},
	{"sim.", "rest.sim."},
	{"cpu.", "rest.sim.cpu."},
	{"cache.", "rest.sim.cache."},
	{"alloc.", "rest.sim.alloc."},
	{"fault.", "rest.fault."},
}

// SemanticName translates an internal registry name ("cpu.cycles",
// "harness.trace_cache.hits") to its exported semantic name
// ("rest.sim.cpu.cycles", "rest.cache.trace.hits"). Names with no mapped
// prefix are namespaced under "rest." verbatim, so every exported metric
// name starts with "rest." — the property ValidateMetrics enforces.
func SemanticName(name string) string {
	for _, p := range semanticPrefixes {
		if strings.HasPrefix(name, p.from) {
			return p.to + name[len(p.from):]
		}
	}
	return "rest." + name
}

// --- OTLP JSON document types (protobuf JSON mapping) ---

// KeyValue is one OTLP attribute.
type KeyValue struct {
	Key   string   `json:"key"`
	Value AnyValue `json:"value"`
}

// AnyValue is the OTLP any-value union; exactly one field is set.
type AnyValue struct {
	StringValue *string `json:"stringValue,omitempty"`
	// IntValue is a decimal string per the protobuf JSON mapping of int64.
	IntValue *string `json:"intValue,omitempty"`
}

// String builds a string attribute.
func String(key, v string) KeyValue {
	return KeyValue{Key: key, Value: AnyValue{StringValue: &v}}
}

// Int builds an int attribute (encoded as a decimal string on the wire).
func Int(key string, v uint64) KeyValue {
	s := strconv.FormatUint(v, 10)
	return KeyValue{Key: key, Value: AnyValue{IntValue: &s}}
}

// Resource identifies the producing process.
type Resource struct {
	Attributes []KeyValue `json:"attributes"`
}

// Scope is the OTLP instrumentation scope.
type Scope struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// MetricsDoc is one ExportMetricsServiceRequest-shaped document.
type MetricsDoc struct {
	ResourceMetrics []ResourceMetrics `json:"resourceMetrics"`
}

// ResourceMetrics groups one resource's scoped metrics.
type ResourceMetrics struct {
	Resource     Resource       `json:"resource"`
	ScopeMetrics []ScopeMetrics `json:"scopeMetrics"`
}

// ScopeMetrics groups one scope's metrics.
type ScopeMetrics struct {
	Scope   Scope    `json:"scope"`
	Metrics []Metric `json:"metrics"`
}

// Metric is one exported metric; exactly one of Sum, Gauge, Histogram is
// set, mirroring the registry's three instrument kinds.
type Metric struct {
	Name      string     `json:"name"`
	Sum       *Sum       `json:"sum,omitempty"`
	Gauge     *Gauge     `json:"gauge,omitempty"`
	Histogram *Histogram `json:"histogram,omitempty"`
}

// CumulativeTemporality is AGGREGATION_TEMPORALITY_CUMULATIVE: every data
// point reports the total since the sweep started, which is exactly what
// the registry's commutative merge produces.
const CumulativeTemporality = 2

// Sum is a monotonic cumulative sum (a registry Counter).
type Sum struct {
	DataPoints             []NumberDataPoint `json:"dataPoints"`
	AggregationTemporality int               `json:"aggregationTemporality"`
	IsMonotonic            bool              `json:"isMonotonic"`
}

// Gauge is a last-value instrument (a registry high-water Gauge).
type Gauge struct {
	DataPoints []NumberDataPoint `json:"dataPoints"`
}

// NumberDataPoint is one integer sample.
type NumberDataPoint struct {
	StartTimeUnixNano string `json:"startTimeUnixNano,omitempty"`
	TimeUnixNano      string `json:"timeUnixNano"`
	// AsInt is a decimal string per the protobuf JSON mapping.
	AsInt string `json:"asInt"`
}

// Histogram is an explicit-bounds histogram (a registry Histogram).
type Histogram struct {
	DataPoints             []HistogramDataPoint `json:"dataPoints"`
	AggregationTemporality int                  `json:"aggregationTemporality"`
}

// HistogramDataPoint carries the bucket counts; len(BucketCounts) ==
// len(ExplicitBounds)+1 with the final bucket unbounded, matching the
// registry's implicit +inf bucket.
type HistogramDataPoint struct {
	StartTimeUnixNano string    `json:"startTimeUnixNano,omitempty"`
	TimeUnixNano      string    `json:"timeUnixNano"`
	Count             string    `json:"count"`
	Sum               float64   `json:"sum"`
	BucketCounts      []string  `json:"bucketCounts"`
	ExplicitBounds    []float64 `json:"explicitBounds"`
}

// SpansDoc is one ExportTraceServiceRequest-shaped document.
type SpansDoc struct {
	ResourceSpans []ResourceSpans `json:"resourceSpans"`
}

// ResourceSpans groups one resource's scoped spans.
type ResourceSpans struct {
	Resource   Resource     `json:"resource"`
	ScopeSpans []ScopeSpans `json:"scopeSpans"`
}

// ScopeSpans groups one scope's spans.
type ScopeSpans struct {
	Scope Scope  `json:"scope"`
	Spans []Span `json:"spans"`
}

// SpanKindInternal is SPAN_KIND_INTERNAL.
const SpanKindInternal = 1

// Status codes per the OTLP trace spec.
const (
	StatusUnset = 0
	StatusOK    = 1
	StatusError = 2
)

// Span is one exported span.
type Span struct {
	TraceID           string     `json:"traceId"`
	SpanID            string     `json:"spanId"`
	Name              string     `json:"name"`
	Kind              int        `json:"kind"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	EndTimeUnixNano   string     `json:"endTimeUnixNano"`
	Attributes        []KeyValue `json:"attributes,omitempty"`
	Status            *Status    `json:"status,omitempty"`
}

// Status is the span's terminal status.
type Status struct {
	Code    int    `json:"code"`
	Message string `json:"message,omitempty"`
}

// --- encoding ---

// ServiceResource builds the resource block every exported document
// carries: service.name plus the build identity.
func ServiceResource(serviceName string) Resource {
	return Resource{Attributes: []KeyValue{
		String("service.name", serviceName),
		String("service.version", obs.ReadBuild().String()),
	}}
}

func nanos(t time.Time) string {
	if t.IsZero() {
		return "0"
	}
	return strconv.FormatInt(t.UnixNano(), 10)
}

// EncodeMetrics renders a registry snapshot as one MetricsDoc. Metric names
// are translated through SemanticName; the snapshot's sorted order is
// preserved, so two identical snapshots encode to identical bytes given the
// same timestamps.
func EncodeMetrics(ms []obs.Metric, res Resource, start, now time.Time) *MetricsDoc {
	startNs, nowNs := nanos(start), nanos(now)
	out := make([]Metric, 0, len(ms))
	for _, m := range ms {
		em := Metric{Name: SemanticName(m.Name)}
		switch m.Type {
		case "counter":
			em.Sum = &Sum{
				DataPoints: []NumberDataPoint{{
					StartTimeUnixNano: startNs, TimeUnixNano: nowNs,
					AsInt: strconv.FormatUint(m.Value, 10),
				}},
				AggregationTemporality: CumulativeTemporality,
				IsMonotonic:            true,
			}
		case "gauge":
			em.Gauge = &Gauge{DataPoints: []NumberDataPoint{{
				StartTimeUnixNano: startNs, TimeUnixNano: nowNs,
				AsInt: strconv.FormatUint(m.Value, 10),
			}}}
		case "histogram":
			dp := HistogramDataPoint{
				StartTimeUnixNano: startNs, TimeUnixNano: nowNs,
				Count: strconv.FormatUint(m.Count, 10),
				Sum:   float64(m.Sum),
			}
			for _, b := range m.Buckets {
				dp.BucketCounts = append(dp.BucketCounts, strconv.FormatUint(b.Count, 10))
				if b.LE != "inf" {
					bound, _ := strconv.ParseFloat(b.LE, 64)
					dp.ExplicitBounds = append(dp.ExplicitBounds, bound)
				}
			}
			em.Histogram = &Histogram{
				DataPoints:             []HistogramDataPoint{dp},
				AggregationTemporality: CumulativeTemporality,
			}
		default:
			continue
		}
		out = append(out, em)
	}
	return &MetricsDoc{ResourceMetrics: []ResourceMetrics{{
		Resource:     res,
		ScopeMetrics: []ScopeMetrics{{Scope: Scope{Name: ScopeName, Version: ScopeVersion}, Metrics: out}},
	}}}
}

// CellSpan is the exporter-facing shape of one sweep cell's lifecycle — the
// sweep engine's CellEvent with the sweep name attached and the error
// already flattened to a verdict. It deliberately avoids importing the
// harness so the dependency points harness -> otlp, never back.
type CellSpan struct {
	// Sweep names the experiment ("fig7", "fig8", ...); it seeds the
	// deterministic trace id, so every cell of one sweep shares a trace.
	Sweep    string
	Worker   int
	Index    int
	Total    int
	Workload string
	Config   string
	Start    time.Time
	End      time.Time
	// Verdict is "ok", "hole" or "skipped".
	Verdict string
	// Reason carries a hole's one-line annotation (empty otherwise).
	Reason string
	// Source tags where the result came from ("stream", "capture",
	// "replay", "disk-replay", "result-store"; empty for failures).
	Source string
	Instrs uint64
	Cycles uint64
}

// TraceID derives the deterministic 16-byte trace id shared by every cell
// of one sweep.
func TraceID(sweep string) string {
	sum := sha256.Sum256([]byte("rest.sweep|" + sweep))
	return hex.EncodeToString(sum[:16])
}

// SpanID derives the deterministic 8-byte span id of one grid cell.
func SpanID(sweep string, index int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("rest.cell|%s|%d", sweep, index)))
	return hex.EncodeToString(sum[:8])
}

// EncodeSpans renders cell spans as one SpansDoc. Ids are deterministic
// functions of (sweep, grid index); timestamps and attributes are the
// event's wall-clock facts, which are explicitly outside the determinism
// contract.
func EncodeSpans(cells []CellSpan, res Resource) *SpansDoc {
	spans := make([]Span, 0, len(cells))
	for _, c := range cells {
		s := Span{
			TraceID:           TraceID(c.Sweep),
			SpanID:            SpanID(c.Sweep, c.Index),
			Name:              "rest.cell " + c.Workload + "/" + c.Config,
			Kind:              SpanKindInternal,
			StartTimeUnixNano: nanos(c.Start),
			EndTimeUnixNano:   nanos(c.End),
			Attributes: []KeyValue{
				String("rest.sweep", c.Sweep),
				String("rest.cell.workload", c.Workload),
				String("rest.cell.config", c.Config),
				Int("rest.cell.worker", uint64(c.Worker)),
				Int("rest.cell.index", uint64(c.Index)),
				Int("rest.cell.total", uint64(c.Total)),
				String("rest.cell.verdict", c.Verdict),
			},
		}
		if c.Source != "" {
			s.Attributes = append(s.Attributes, String("rest.cell.source", c.Source))
		}
		if c.Verdict == "ok" {
			s.Attributes = append(s.Attributes,
				Int("rest.cell.instrs", c.Instrs), Int("rest.cell.cycles", c.Cycles))
			s.Status = &Status{Code: StatusOK}
		} else {
			s.Status = &Status{Code: StatusError, Message: c.Verdict + ": " + c.Reason}
		}
		spans = append(spans, s)
	}
	return &SpansDoc{ResourceSpans: []ResourceSpans{{
		Resource:   res,
		ScopeSpans: []ScopeSpans{{Scope: Scope{Name: ScopeName, Version: ScopeVersion}, Spans: spans}},
	}}}
}

// Line marshals a document (MetricsDoc or SpansDoc) as one compact NDJSON
// line, trailing newline included.
func Line(doc any) []byte {
	raw, err := json.Marshal(doc)
	if err != nil {
		// Both document types marshal by construction; a failure here is a
		// programming error worth surfacing as a poison line rather than a
		// silent drop.
		raw = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return append(raw, '\n')
}
