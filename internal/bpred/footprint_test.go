package bpred

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestNewFootprint is a deterministic memory gate on the predictor: with
// the GC off, it counts the bytes one New of Table II's L-TAGE allocates.
// Every timed cell builds one, and its tables are the bulk of a live cell:
// a 16 Ki-entry bimodal table of 1 byte an entry, twelve 1 Ki-entry tagged
// tables of 4 bytes an entry and a 4 Ki-entry BTB of 16 bytes an entry.
//
// Measured with Go 1.24: 138,072 B; with 8-byte tagged entries and 24-byte
// BTB entries, 219,992 B. The bound keeps ~20% headroom for the runtime of
// go.mod's older Go.
func TestNewFootprint(t *testing.T) {
	const maxBytes = 162 << 10
	New(Config{}) // warm any lazy runtime state outside the measured window
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := New(Config{})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d B in %d allocations (bound %d B)", bytes, after.Mallocs-before.Mallocs, maxBytes)
	if bytes > maxBytes {
		t.Errorf("one New allocated %d B, over the %d B bound", bytes, maxBytes)
	}
}
