package cli

import (
	"os"
	"runtime/debug"
)

// gcPercent is the garbage collector's target for restbench and restnet.
// A simulating sweep keeps at most about 1 MB live, so under Go's default
// of 100 its heap sits at the runtime's 4 MB minimum goal, mostly garbage
// from finished cells. The minimum goal scales with the target: 50 halves
// it to 2 MB and lowers a scale-3 -fig7 sweep's peak RSS by ~1.4 MB, for a
// few percent more user time. 25 measured no lower peak memory, because the
// live cells then set the goal.
const gcPercent = 50

// TuneGC sets the garbage collector's target to gcPercent unless GOGC is
// set in the environment, which keeps the last word. Both commands call it
// once, before Run.
func TuneGC() {
	if _, set := os.LookupEnv("GOGC"); !set {
		debug.SetGCPercent(gcPercent)
	}
}
