// Package obs is the observability plane of the simulator stack: a
// dependency-free registry of counters, gauges and fixed-bucket histograms,
// plus the export surfaces restbench wires them to (Catapult trace files,
// live progress meters, build info).
//
// Design constraints, in order:
//
//  1. Determinism. A sweep records one Registry per grid cell; the harness
//     merges the cell registries in grid order after the workers drain, so
//     the aggregated metrics are byte-identical at any worker count — the
//     same contract the sweep engine's cycle matrices obey. Every merge
//     operation (counter addition, gauge maximum, bucket-wise histogram
//     addition) is commutative and associative, so even the map-ordered
//     walk inside Merge cannot perturb the final snapshot.
//  2. Zero cost when disabled. Every handle method no-ops on a nil
//     receiver, and a nil *Registry hands out nil handles, so instrumented
//     code paths hold a single pointer nil-check when observability is off.
//     The paired benchmark in bench_test.go pins this.
//  3. No goroutines, no locks in the hot path. A Registry is single-
//     goroutine by construction (one per simulation world); the concurrent
//     collectors (Trace, Progress, Live) carry their own mutexes.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count. All methods are safe
// on a nil receiver (the disabled fast path).
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge records a high-water mark: Set keeps the maximum of everything it
// has seen, which makes merging cells commutative (peaks across a sweep are
// the max of per-cell peaks). All methods are safe on a nil receiver.
type Gauge struct {
	v uint64
}

// Set raises the gauge to v if v exceeds the current high-water mark.
func (g *Gauge) Set(v uint64) {
	if g != nil && v > g.v {
		g.v = v
	}
}

// Value returns the high-water mark (0 on nil).
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket cumulative-bound histogram: bucket i counts
// observations <= bounds[i], with one implicit +inf bucket at the end.
// Bounds are fixed at registration, so merging across cells is bucket-wise
// addition. All methods are safe on a nil receiver.
type Histogram struct {
	bounds []uint64
	counts []uint64 // len(bounds)+1; last is +inf
	count  uint64
	sum    uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Registry is one world's (or one aggregated sweep's) metric namespace.
// Registration is idempotent: asking for an existing name returns the same
// handle. A Registry is not goroutine-safe — each simulation world owns its
// own, and aggregation happens after the worker pool has drained.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, registering it on first use. A nil
// registry returns a nil handle (which every method accepts).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named high-water gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it with the given
// cumulative bucket bounds (ascending) on first use. Later calls return the
// existing handle; the bounds are fixed at first registration.
func (r *Registry) Histogram(name string, bounds ...uint64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: append([]uint64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// Merge folds other into r: counters add, gauges keep the maximum,
// histograms add bucket-wise. Histograms present on both sides must have
// identical bounds (they do by construction — every cell registers through
// the same probe constructors).
func (r *Registry) Merge(other *Registry) error {
	if r == nil || other == nil {
		return nil
	}
	for name, c := range other.counters {
		r.Counter(name).Add(c.v)
	}
	for name, g := range other.gauges {
		r.Gauge(name).Set(g.v)
	}
	for name, h := range other.hists {
		dst := r.Histogram(name, h.bounds...)
		if len(dst.bounds) != len(h.bounds) {
			return fmt.Errorf("obs: histogram %q bound mismatch: %v vs %v", name, dst.bounds, h.bounds)
		}
		for i, b := range h.bounds {
			if dst.bounds[i] != b {
				return fmt.Errorf("obs: histogram %q bound mismatch: %v vs %v", name, dst.bounds, h.bounds)
			}
		}
		for i, n := range h.counts {
			dst.counts[i] += n
		}
		dst.count += h.count
		dst.sum += h.sum
	}
	return nil
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// LE is the bucket's inclusive upper bound, "inf" for the last bucket.
	LE string `json:"le"`
	// Count is the number of observations <= LE (non-cumulative per bucket).
	Count uint64 `json:"count"`
}

// Metric is one snapshotted metric. Counters and gauges carry Value;
// histograms carry Count, Sum and Buckets.
type Metric struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"` // "counter", "gauge" or "histogram"
	Value   uint64   `json:"value,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot returns every metric sorted by name — the deterministic export
// order every renderer relies on. A nil registry snapshots empty.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Type: "counter", Value: c.v})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Type: "gauge", Value: g.v})
	}
	for name, h := range r.hists {
		m := Metric{Name: name, Type: "histogram", Count: h.count, Sum: h.sum}
		for i, b := range h.bounds {
			m.Buckets = append(m.Buckets, Bucket{LE: fmt.Sprintf("%d", b), Count: h.counts[i]})
		}
		m.Buckets = append(m.Buckets, Bucket{LE: "inf", Count: h.counts[len(h.bounds)]})
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CSVRows renders metrics as "metric,type,field,value" rows (no header).
// Counters and gauges emit one row each; a histogram emits count, sum and
// one le_<bound> row per bucket.
func CSVRows(b *strings.Builder, prefix string, metrics []Metric) {
	for _, m := range metrics {
		switch m.Type {
		case "histogram":
			fmt.Fprintf(b, "%s%s,histogram,count,%d\n", prefix, m.Name, m.Count)
			fmt.Fprintf(b, "%s%s,histogram,sum,%d\n", prefix, m.Name, m.Sum)
			for _, bk := range m.Buckets {
				fmt.Fprintf(b, "%s%s,histogram,le_%s,%d\n", prefix, m.Name, bk.LE, bk.Count)
			}
		default:
			fmt.Fprintf(b, "%s%s,%s,value,%d\n", prefix, m.Name, m.Type, m.Value)
		}
	}
}
