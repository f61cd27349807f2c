package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"rest/internal/obs"
)

// span is one timed call the benchmark made: into a layer of the simulator,
// or out to a restbench process. Spans serving one sweep cell (or one
// benchmark invocation) share Cell.
type span struct {
	Name, Cell string
	Parent     int // index of the enclosing span, -1 for a root
	Start, End time.Time
}

// spanLog keeps every span in memory, in start order, and writes them out
// once at exit. It is used from a single goroutine: begin pushes onto the
// open-span stack and end pops, so a span's parent is whatever was open when
// it began.
type spanLog struct {
	spans []span
	open  []int
	trace *obs.Trace // created first, so its clock origin precedes every span
}

func newSpanLog() *spanLog { return &spanLog{trace: obs.NewTrace()} }

// begin opens a span and returns its handle for end.
func (l *spanLog) begin(name, cell string) int {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Cell: cell, Parent: parent, Start: time.Now()})
	id := len(l.spans) - 1
	l.open = append(l.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (l *spanLog) end(id int) {
	if n := len(l.open); n == 0 || l.open[n-1] != id {
		panic(fmt.Sprintf("restperf: span %d closed out of order", id))
	}
	l.open = l.open[:len(l.open)-1]
	l.spans[id].End = time.Now()
}

// timed runs f inside a span.
func (l *spanLog) timed(name, cell string, f func()) {
	id := l.begin(name, cell)
	f()
	l.end(id)
}

// mark returns the index the next span will get.
func (l *spanLog) mark() int { return len(l.spans) }

// spanRange is the spans with indexes from, from+1, ..., to-1: the spans one
// piece of work recorded. The queries below read the spans of the ranges
// they are given, so one log can serve several grids and workloads.
type spanRange struct{ from, to int }

// total sums the durations of every span with the given name.
func (l *spanLog) total(rs []spanRange, name string) time.Duration {
	var d time.Duration
	for _, dur := range l.durations(rs, name) {
		d += dur
	}
	return d
}

// durations lists the durations of every span with the given name.
func (l *spanLog) durations(rs []spanRange, name string) []time.Duration {
	var out []time.Duration
	for _, r := range rs {
		for _, s := range l.spans[r.from:r.to] {
			if s.Name == name {
				out = append(out, s.End.Sub(s.Start))
			}
		}
	}
	return out
}

// selfTimes returns each layer's self time: for every span, its duration
// minus the part of its interval that its child spans cover, summed by
// layer (the span name up to its first dot).
func (l *spanLog) selfTimes(rs []spanRange) map[string]time.Duration {
	children := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for _, r := range rs {
		for i := r.from; i < r.to; i++ {
			s := l.spans[i]
			layer, _, _ := strings.Cut(s.Name, ".")
			out[layer] += s.End.Sub(s.Start) - l.covered(s, children[i])
		}
	}
	return out
}

// covered measures the union of the child spans' intervals clipped to the
// parent's.
func (l *spanLog) covered(parent span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := l.spans[k].Start, l.spans[k].End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var d time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.Before(end) {
			v.a = end
		}
		if v.b.After(v.a) {
			d += v.b.Sub(v.a)
			end = v.b
		}
	}
	return d
}

// writeCatapult writes every span as a Catapult complete slice, each
// carrying its parent and cell, and checks the file with the same validator
// restbench's own -trace output is held to.
func (l *spanLog) writeCatapult(path string) error {
	for i, s := range l.spans {
		parent := ""
		if s.Parent >= 0 {
			parent = fmt.Sprintf("%s#%d", l.spans[s.Parent].Name, s.Parent)
		}
		l.trace.Slice(0, s.Name, "restperf", s.Start, s.End,
			map[string]any{"span": i, "parent": parent, "cell": s.Cell})
	}
	var buf bytes.Buffer
	if _, err := l.trace.WriteTo(&buf); err != nil {
		return err
	}
	if err := obs.ValidateCatapult(buf.Bytes()); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
