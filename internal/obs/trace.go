package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Trace collects a Chrome/Catapult trace ("chrome://tracing" / Perfetto
// JSON object format): one process, one track (tid) per sweep worker, one
// complete ("X") slice per sweep cell. Slice timestamps are wall clock and
// therefore not deterministic — the trace is a profiling surface, not a
// report surface; determinism is the metrics registry's job.
//
// Trace is safe for concurrent use: the sweep engine's completion stream
// calls Slice from worker goroutines.
type Trace struct {
	mu     sync.Mutex
	base   time.Time
	events []traceEvent
	named  map[int]bool
}

// traceEvent is one Catapult event. WriteTo spells its fields, and the
// enclosing {"traceEvents": [...]} wrapper, as the Trace Event Format spec
// names them.
type traceEvent struct {
	Name string
	Cat  string // omitted when empty
	Ph   string
	TS   int64 // microseconds since trace start
	Dur  int64 // microseconds; omitted when zero
	PID  int
	TID  int
	Args map[string]any // omitted when empty
}

// NewTrace starts an empty trace; slice timestamps are relative to now.
func NewTrace() *Trace {
	return &Trace{base: time.Now(), named: make(map[int]bool)}
}

// Slice records one complete slice on track tid. Nil-safe, so callers can
// hold a nil *Trace when tracing is off.
func (t *Trace) Slice(tid int, name, cat string, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.named[tid] {
		t.named[tid] = true
		t.events = append(t.events, traceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": workerName(tid)},
		})
	}
	ts := start.Sub(t.base).Microseconds()
	dur := end.Sub(start).Microseconds()
	if dur < 1 {
		dur = 1 // chrome://tracing drops zero-duration X slices
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X", TS: ts, Dur: dur, PID: 1, TID: tid, Args: args,
	})
}

func workerName(tid int) string {
	return "worker " + strconv.Itoa(tid)
}

// WriteTo emits the trace as a Catapult JSON object. Events are sorted by
// (timestamp, tid) so repeated writes of the same trace are stable. The
// bytes are encoding/json's MarshalIndent with a one-space indent, written
// by hand so a sweep links no JSON encoder (TestTraceWriteToMatchesMarshalIndent
// pins them). An arg must be a string, an int or a uint64; any other type
// fails the write before a byte is written.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	t.mu.Lock()
	events := append([]traceEvent(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		return events[i].TID < events[j].TID
	})
	b := []byte("{\n \"traceEvents\": [")
	for i, ev := range events {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n  {\n   \"name\": "...)
		b = AppendJSONString(b, ev.Name)
		if ev.Cat != "" {
			b = append(b, ",\n   \"cat\": "...)
			b = AppendJSONString(b, ev.Cat)
		}
		b = append(b, ",\n   \"ph\": "...)
		b = AppendJSONString(b, ev.Ph)
		b = append(b, ",\n   \"ts\": "...)
		b = strconv.AppendInt(b, ev.TS, 10)
		if ev.Dur != 0 {
			b = append(b, ",\n   \"dur\": "...)
			b = strconv.AppendInt(b, ev.Dur, 10)
		}
		b = append(b, ",\n   \"pid\": "...)
		b = strconv.AppendInt(b, int64(ev.PID), 10)
		b = append(b, ",\n   \"tid\": "...)
		b = strconv.AppendInt(b, int64(ev.TID), 10)
		if len(ev.Args) > 0 {
			keys := make([]string, 0, len(ev.Args))
			for k := range ev.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b = append(b, ",\n   \"args\": {"...)
			for j, k := range keys {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n    "...)
				b = AppendJSONString(b, k)
				b = append(b, ": "...)
				switch v := ev.Args[k].(type) {
				case string:
					b = AppendJSONString(b, v)
				case int:
					b = strconv.AppendInt(b, int64(v), 10)
				case uint64:
					b = strconv.AppendUint(b, v, 10)
				default:
					return 0, fmt.Errorf("obs: trace slice %q: arg %q is a %T, want a string, int or uint64", ev.Name, k, v)
				}
			}
			b = append(b, "\n   }"...)
		}
		b = append(b, "\n  }"...)
	}
	if len(events) > 0 {
		b = append(b, "\n "...)
	}
	b = append(b, "],\n \"displayTimeUnit\": \"ms\"\n}\n"...)
	n, err := w.Write(b)
	return int64(n), err
}

// ValidateCatapult checks that raw parses as a Catapult JSON object with a
// traceEvents array whose entries carry the fields chrome://tracing needs:
// every event has name/ph/pid/tid, and every "X" (complete) slice also has
// ts and a positive dur. The schema acceptance test and the restbench
// integration test share this checker.
func ValidateCatapult(raw []byte) error {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				return fmt.Errorf("obs: traceEvents[%d] missing %q: %v", i, key, ev)
			}
		}
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				return fmt.Errorf("obs: traceEvents[%d]: X slice needs a non-negative ts", i)
			}
			dur, ok := ev["dur"].(float64)
			if !ok || dur <= 0 {
				return fmt.Errorf("obs: traceEvents[%d]: X slice needs a positive dur", i)
			}
		case "M":
			// Metadata events carry their payload in args.
		default:
			return fmt.Errorf("obs: traceEvents[%d]: unexpected phase %q", i, ph)
		}
	}
	return nil
}
