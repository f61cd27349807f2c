package otlp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rest/internal/obs"
)

var (
	t0 = time.Unix(1700000000, 0).UTC()
	t1 = time.Unix(1700000123, 456789000).UTC()
)

func sampleRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("cpu.cycles").Add(1234)
	r.Counter("harness.trace_cache.hits").Add(7)
	r.Gauge("sim.heap_peak").Set(4096)
	h := r.Histogram("alloc.sizes", 16, 64, 256)
	h.Observe(10)
	h.Observe(100)
	h.Observe(5000)
	return r
}

func TestSemanticNames(t *testing.T) {
	cases := map[string]string{
		"cpu.cycles":                    "rest.sim.cpu.cycles",
		"cache.l1d.misses":              "rest.sim.cache.l1d.misses",
		"alloc.sizes":                   "rest.sim.alloc.sizes",
		"sim.heap_peak":                 "rest.sim.heap_peak",
		"sim.blockcache.hits":           "rest.sim.blockcache.hits",
		"harness.trace_cache.hits":      "rest.cache.trace.hits",
		"harness.diskcache.trace_hits":  "rest.cache.disk.trace_hits",
		"harness.live.cells_done":       "rest.sweep.live.cells_done",
		"harness.diskcache.unavailable": "rest.cache.disk.unavailable",
		"fault.detected":                "rest.fault.detected",
		"unmapped.thing":                "rest.unmapped.thing",
	}
	for in, want := range cases {
		if got := SemanticName(in); got != want {
			t.Errorf("SemanticName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEncodeMetricsValidatesAndIsDeterministic(t *testing.T) {
	res := ServiceResource("restbench-test")
	doc := EncodeMetrics(sampleRegistry().Snapshot(), res, t0, t1)
	line := Line(doc)
	if err := ValidateMetrics(line); err != nil {
		t.Fatalf("encoded metrics fail validation: %v", err)
	}
	if !bytes.Equal(line, Line(EncodeMetrics(sampleRegistry().Snapshot(), res, t0, t1))) {
		t.Errorf("same snapshot + clock encoded to different bytes")
	}

	// Spot-check the wire shape a collector sees.
	var raw map[string]any
	if err := json.Unmarshal(line, &raw); err != nil {
		t.Fatal(err)
	}
	s := string(line)
	for _, want := range []string{
		`"name":"rest.sim.cpu.cycles"`, `"isMonotonic":true`,
		`"name":"rest.cache.trace.hits"`,
		`"name":"rest.sim.heap_peak"`, `"gauge"`,
		`"name":"rest.sim.alloc.sizes"`, `"explicitBounds":[16,64,256]`,
		`"bucketCounts":["1","0","1","1"]`,
		`"asInt":"1234"`, `"timeUnixNano":"1700000123456789000"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("encoded metrics missing %s in:\n%s", want, s)
		}
	}
}

func TestEncodeSpansValidates(t *testing.T) {
	res := ServiceResource("restbench-test")
	cells := []obs.CellSpan{
		{Sweep: "fig7", Worker: 2, Index: 5, Total: 40, Workload: "lbm", Config: "secure-full",
			Start: t0, End: t1, Verdict: "ok", Source: "replay", Instrs: 100, Cycles: 250},
		{Sweep: "fig7", Worker: 0, Index: 6, Total: 40, Workload: "mcf", Config: "plain",
			Start: t0, End: t1, Verdict: "hole", Reason: "cell timeout"},
	}
	line := Line(EncodeSpans(cells, res))
	if err := ValidateSpans(line); err != nil {
		t.Fatalf("encoded spans fail validation: %v", err)
	}
	s := string(line)
	for _, want := range []string{
		`"name":"rest.cell lbm/secure-full"`,
		`"rest.cell.source"`, `"replay"`,
		`"rest.cell.cycles"`, `"intValue":"250"`,
		`"code":1`, `"code":2`, `"message":"hole: cell timeout"`,
		TraceID("fig7"), SpanID("fig7", 5),
	} {
		if !strings.Contains(s, want) {
			t.Errorf("encoded spans missing %s in:\n%s", want, s)
		}
	}
	if TraceID("fig7") == TraceID("fig8") {
		t.Errorf("trace ids must differ per sweep")
	}
	if SpanID("fig7", 5) == SpanID("fig7", 6) {
		t.Errorf("span ids must differ per cell")
	}
}

func TestValidatorsRejectMalformed(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		fn   func([]byte) error
		want string
	}{
		{"not json", "nope", ValidateMetrics, "not valid JSON"},
		{"no resourceMetrics", `{}`, ValidateMetrics, "no resourceMetrics"},
		{"unprefixed name", `{"resourceMetrics":[{"resource":{"attributes":[]},"scopeMetrics":[{"scope":{"name":"x"},"metrics":[{"name":"cpu.cycles","gauge":{"dataPoints":[{"timeUnixNano":"1","asInt":"2"}]}}]}]}]}`,
			ValidateMetrics, "outside the rest. namespace"},
		{"two variants", `{"resourceMetrics":[{"resource":{"attributes":[]},"scopeMetrics":[{"scope":{"name":"x"},"metrics":[{"name":"rest.a","gauge":{"dataPoints":[{"timeUnixNano":"1","asInt":"2"}]},"sum":{"dataPoints":[{"timeUnixNano":"1","asInt":"2"}],"aggregationTemporality":2,"isMonotonic":true}}]}]}]}`,
			ValidateMetrics, "instrument variants"},
		{"asInt not string", `{"resourceMetrics":[{"resource":{"attributes":[]},"scopeMetrics":[{"scope":{"name":"x"},"metrics":[{"name":"rest.a","gauge":{"dataPoints":[{"timeUnixNano":"1","asInt":2}]}}]}]}]}`,
			ValidateMetrics, "decimal string"},
		{"delta sum", `{"resourceMetrics":[{"resource":{"attributes":[]},"scopeMetrics":[{"scope":{"name":"x"},"metrics":[{"name":"rest.a","sum":{"dataPoints":[{"timeUnixNano":"1","asInt":"2"}],"aggregationTemporality":1,"isMonotonic":true}}]}]}]}`,
			ValidateMetrics, "cumulative"},
		{"bad bucket arity", `{"resourceMetrics":[{"resource":{"attributes":[]},"scopeMetrics":[{"scope":{"name":"x"},"metrics":[{"name":"rest.h","histogram":{"dataPoints":[{"timeUnixNano":"1","count":"1","bucketCounts":["1"],"explicitBounds":[16,64]}],"aggregationTemporality":2}}]}]}]}`,
			ValidateMetrics, "bounds+1"},
		{"no resourceSpans", `{}`, ValidateSpans, "no resourceSpans"},
		{"short traceId", `{"resourceSpans":[{"resource":{"attributes":[]},"scopeSpans":[{"spans":[{"name":"s","traceId":"abc","spanId":"0123456789abcdef","startTimeUnixNano":"1","endTimeUnixNano":"2"}]}]}]}`,
			ValidateSpans, "traceId"},
		{"end before start", `{"resourceSpans":[{"resource":{"attributes":[]},"scopeSpans":[{"spans":[{"name":"s","traceId":"0123456789abcdef0123456789abcdef","spanId":"0123456789abcdef","startTimeUnixNano":"5","endTimeUnixNano":"2"}]}]}]}`,
			ValidateSpans, "ends before it starts"},
	}
	for _, c := range cases {
		err := c.fn([]byte(c.raw))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestValidateDumpFormats(t *testing.T) {
	res := ServiceResource("restbench-test")
	metrics := Line(EncodeMetrics(sampleRegistry().Snapshot(), res, t0, t1))
	spans := Line(EncodeSpans([]obs.CellSpan{{
		Sweep: "fig8", Index: 0, Total: 1, Workload: "lbm", Config: "plain",
		Start: t0, End: t1, Verdict: "ok", Source: "stream",
	}}, res))

	// Pretty-printed single document (the /otlp/metrics shape).
	pretty, err := json.MarshalIndent(EncodeMetrics(sampleRegistry().Snapshot(), res, t0, t1), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateDump(pretty); err != nil || n != 1 {
		t.Errorf("pretty document: n=%d err=%v", n, err)
	}
	// NDJSON stream dump.
	nd := append(append([]byte{}, metrics...), spans...)
	if n, err := ValidateDump(nd); err != nil || n != 2 {
		t.Errorf("ndjson dump: n=%d err=%v", n, err)
	}
	// SSE framing.
	sse := []byte("data: " + string(metrics) + "\ndata: " + string(spans) + "\n")
	if n, err := ValidateDump(sse); err != nil || n != 2 {
		t.Errorf("sse dump: n=%d err=%v", n, err)
	}
	// Garbage.
	if _, err := ValidateDump([]byte("hello\nworld\n")); err == nil {
		t.Errorf("garbage dump validated")
	}
	if _, err := ValidateDump(nil); err == nil {
		t.Errorf("empty dump validated")
	}
	// A dump with one broken line reports its line number.
	broken := append(append([]byte{}, metrics...),
		[]byte(`{"resourceSpans":[{"resource":{"attributes":[]},"scopeSpans":[{"spans":[{"name":""}]}]}]}`+"\n")...)
	if _, err := ValidateDump(broken); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("broken dump: %v", err)
	}
}
