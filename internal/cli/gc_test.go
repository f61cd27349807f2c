package cli

import (
	"os"
	"runtime/debug"
	"testing"
)

// TestTuneGC pins the commands' GC target: 50 with GOGC unset, and
// whatever was in force with GOGC set. It restores the percent it found.
func TestTuneGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	t.Setenv("GOGC", "") // restored, or unset again, when the test ends
	os.Unsetenv("GOGC")
	TuneGC()
	if got := debug.SetGCPercent(77); got != 50 {
		t.Errorf("with GOGC unset, TuneGC left the percent at %d, want 50", got)
	}
	t.Setenv("GOGC", "100")
	TuneGC()
	if got := debug.SetGCPercent(100); got != 77 {
		t.Errorf("with GOGC=100 set, TuneGC moved the percent to %d, want it left at 77", got)
	}
}
