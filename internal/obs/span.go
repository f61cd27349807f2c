package obs

import "time"

// CellSpan is one finished sweep cell as every telemetry surface reads it:
// the sweep engine's cell event with the sweep name attached and the error
// already flattened to a verdict. The progress meter, the Catapult trace and
// the OTLP exporter all take it from one flattening (the harness's
// ObserveCells), and it lives here so the harness builds it without
// importing any of them.
type CellSpan struct {
	// Sweep names the experiment ("fig7", "fig8", ...); it seeds the
	// deterministic OTLP trace id, so every cell of one sweep shares a trace.
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
	// "replay", "result-store"; empty for failures).
	Source string
	Instrs uint64
	Cycles uint64
}
