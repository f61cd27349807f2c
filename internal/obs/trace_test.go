package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceCatapultSchema(t *testing.T) {
	tr := NewTrace()
	base := time.Now()
	tr.Slice(0, "lbm/plain", "fig7", base, base.Add(3*time.Millisecond),
		map[string]any{"workload": "lbm", "config": "plain", "verdict": "completed", "instructions": 12345, "seed": 0})
	tr.Slice(1, "lbm/asan", "fig7", base.Add(time.Millisecond), base.Add(2*time.Millisecond), nil)
	tr.Slice(0, "xalanc/plain", "fig7", base.Add(4*time.Millisecond), base.Add(4*time.Millisecond), nil)

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateCatapult(buf.Bytes()); err != nil {
		t.Fatalf("trace fails its own schema: %v\n%s", err, buf.String())
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// 3 slices + 2 thread_name metadata events (tids 0 and 1).
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("want 5 events, got %d", len(doc.TraceEvents))
	}
	meta, slices := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
			if ev["name"] != "thread_name" {
				t.Errorf("metadata event is not thread_name: %v", ev)
			}
		case "X":
			slices++
		}
	}
	if meta != 2 || slices != 3 {
		t.Errorf("want 2 metadata + 3 slices, got %d + %d", meta, slices)
	}
	if !strings.Contains(buf.String(), `"verdict": "completed"`) {
		t.Error("slice args not serialized")
	}
}

// refEvent is a trace event as encoding/json spells it, with the tags and
// the float timestamps the trace was once marshalled from: the reference
// WriteTo's hand-written bytes are held to.
type refEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// marshalIndentTrace renders tr through json.MarshalIndent.
func marshalIndentTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	events := make([]refEvent, 0, len(tr.events))
	for _, ev := range tr.events {
		events = append(events, refEvent{ev.Name, ev.Cat, ev.Ph, float64(ev.TS), float64(ev.Dur), ev.PID, ev.TID, ev.Args})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		return events[i].TID < events[j].TID
	})
	raw, err := json.MarshalIndent(struct {
		TraceEvents     []refEvent `json:"traceEvents"`
		DisplayTimeUnit string     `json:"displayTimeUnit"`
	}{events, "ms"}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// TestTraceWriteToMatchesMarshalIndent pins WriteTo's hand-written bytes to
// json.MarshalIndent's: an empty trace, and slices whose names, categories
// and args need every kind of escape, with args of each type the sweeps
// write. An arg of any other type fails the write and writes nothing.
func TestTraceWriteToMatchesMarshalIndent(t *testing.T) {
	base := time.Unix(1700000000, 0)
	empty := &Trace{base: base, named: make(map[int]bool)}
	full := &Trace{base: base, named: make(map[int]bool)}
	for i, name := range jsonStringSeeds {
		start := base.Add(time.Duration(i/2) * time.Millisecond) // pairs share a timestamp
		cat := "fig7"
		if i%3 == 0 {
			cat = "" // omitted
		}
		args := map[string]any{
			"workload": name, "config": "<plain&asan>", "verdict": "ok",
			"instrs": uint64(math.MaxUint64), "cycles": uint64(i), "worker": -i, "index": i,
		}
		switch i % 4 {
		case 1:
			args = nil // omitted
		case 2:
			args = map[string]any{} // omitted
		}
		full.Slice(i%3, name, cat, start, start.Add(time.Duration(i)*time.Microsecond), args)
	}
	for _, tt := range []struct {
		name string
		tr   *Trace
	}{{"empty", empty}, {"escapes", full}} {
		var buf bytes.Buffer
		n, err := tt.tr.WriteTo(&buf)
		if err != nil || n != int64(buf.Len()) {
			t.Fatalf("%s: WriteTo = %d, %v; wrote %d bytes", tt.name, n, err, buf.Len())
		}
		if want := marshalIndentTrace(t, tt.tr); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: WriteTo wrote\n%s\njson.MarshalIndent writes\n%s", tt.name, buf.Bytes(), want)
		}
	}

	bad := &Trace{base: base, named: make(map[int]bool)}
	bad.Slice(0, "lbm/plain", "fig7", base, base.Add(time.Millisecond), map[string]any{"ipc": 1.5})
	var buf bytes.Buffer
	if n, err := bad.WriteTo(&buf); err == nil || n != 0 || buf.Len() != 0 {
		t.Errorf("a float arg: WriteTo = %d, %v, wrote %q; want an error and nothing written", n, err, buf.Bytes())
	}
}

func TestValidateCatapultRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`not json`,
		`{}`,
		`{"traceEvents":[{"ph":"X","ts":0,"dur":1}]}`,                             // missing name/pid/tid
		`{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":0,"ts":0}]}`,          // missing dur
		`{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":0,"ts":0,"dur":0}]}`,  // zero dur
		`{"traceEvents":[{"name":"a","ph":"Q","pid":1,"tid":0,"ts":0,"dur":1}]}`,  // unknown phase
		`{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":0,"ts":-5,"dur":1}]}`, // negative ts
	} {
		if err := ValidateCatapult([]byte(bad)); err == nil {
			t.Errorf("ValidateCatapult accepted %q", bad)
		}
	}
	if err := ValidateCatapult([]byte(`{"traceEvents":[]}`)); err != nil {
		t.Errorf("empty trace must validate: %v", err)
	}
}

func TestTraceConcurrentSlices(t *testing.T) {
	tr := NewTrace()
	base := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Slice(w, "cell", "sweep", base, base.Add(time.Millisecond), nil)
			}
		}(w)
	}
	wg.Wait()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateCatapult(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestProgressMeter(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "fig7", 4)
	now := time.Now()
	p.now = func() time.Time { return now.Add(2 * time.Second) }
	p.start = now
	p.Observe(true)
	p.Observe(false)
	p.Finish()
	out := buf.String()
	if !strings.Contains(out, "fig7: 2/4 cells") {
		t.Errorf("meter missing progress: %q", out)
	}
	if !strings.Contains(out, "1 holes") {
		t.Errorf("meter missing holes: %q", out)
	}
	if !strings.Contains(out, "eta") {
		t.Errorf("meter missing eta: %q", out)
	}
	// Nil meter must be a silent no-op.
	var np *Progress
	np.Observe(true)
	np.Finish()
}
