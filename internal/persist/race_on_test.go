//go:build race

package persist

// raceEnabled reports whether this test binary was built with the race
// detector. Under it sync.Pool deliberately drops a share of what is put
// back, so allocation gates that depend on warm pools cannot hold.
const raceEnabled = true
