package obs

import "time"

// CellSpan is one finished sweep cell as every telemetry surface reads it:
// the sweep engine builds it once per cell, with the error already
// flattened to a verdict, and hands it with the cell's registry to the
// harness's ObserveCells, which attaches the sweep name. The progress
// meter, the Catapult trace and the OTLP exporter all read that one span,
// and it lives here so the harness builds it without importing any of them.
type CellSpan struct {
	// Sweep names the experiment ("fig7", "fig8", ...); it seeds the
	// deterministic OTLP trace id, so every cell of one sweep shares a trace.
	Sweep string
	// Worker is the worker-pool slot (0-based) that ran the cell.
	Worker int
	// Index is the cell's grid-order position; Total is the grid size.
	Index    int
	Total    int
	Workload string
	Config   string
	// Start and End bound the cell's wall-clock window; for a skipped cell
	// both are the moment the skip was decided.
	Start time.Time
	End   time.Time
	// Verdict is "ok", "hole" or "skipped".
	Verdict string
	// Reason carries a hole's one-line annotation, "sweep cancelled" for a
	// skipped cell, and is empty for "ok".
	Reason string
	// Source tags where the result came from ("stream", "capture",
	// "replay", "result-store"; empty for failures).
	Source string
	Instrs uint64
	Cycles uint64
}
