package world

import (
	"runtime"
	"runtime/debug"
	"testing"

	"rest/internal/cache"
	"rest/internal/prog"
	"rest/internal/workload"
)

// TestWorldFootprint is a deterministic memory gate on world assembly: with
// the GC off, it counts the bytes and allocations one Build and one
// BuildReplay make, and the allocations of a bare Table II hierarchy. Every
// sweep cell builds one world, so this is the per-cell host cost that no
// timing noise can hide. A cache set stores only the lines it has filled,
// so an unused Table II hierarchy is a per-set index, not 1 MiB of empty
// L2 ways; the branch predictor's tables are now the largest part.
//
// Measured with Go 1.24: Build 238,728 B in 83 allocations, BuildReplay
// 195,864 B in 38, NewHierarchy 12 allocations. With 8-byte tagged
// predictor entries, 24-byte BTB entries and 32-page memory slabs they
// were 418,952 B and 277,784 B; preallocating every way on top of that
// cost 1,533,064 B / 2,387, 1,391,896 B / 2,342 and 2,316. The bounds keep
// ~20% headroom because CI builds with go.mod's older Go, whose runtime and
// append growth may size things a little differently.
func TestWorldFootprint(t *testing.T) {
	lbm, err := workload.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	build := func() error {
		_, err := Build(Spec{Pass: prog.Plain()}, lbm.Build(1))
		return err
	}
	replay := func() error {
		_, err := BuildReplay(Spec{}, nil)
		return err
	}
	// Warm every lazy table once, outside the measured windows.
	if err := build(); err != nil {
		t.Fatal(err)
	}
	if err := replay(); err != nil {
		t.Fatal(err)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name      string
		run       func() error
		maxBytes  uint64
		maxAllocs uint64
	}{
		{"Build", build, 280 << 10, 200},
		{"BuildReplay", replay, 230 << 10, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			bytes := after.TotalAlloc - before.TotalAlloc
			allocs := after.Mallocs - before.Mallocs
			t.Logf("%d B in %d allocations (bounds %d B, %d)", bytes, allocs, tc.maxBytes, tc.maxAllocs)
			if bytes > tc.maxBytes || allocs > tc.maxAllocs {
				t.Errorf("allocated %d B in %d allocations, over the %d B / %d bound",
					bytes, allocs, tc.maxBytes, tc.maxAllocs)
			}
		})
	}
	t.Run("NewHierarchy", func(t *testing.T) {
		const maxAllocs = 16
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := cache.NewHierarchy(cache.DefaultHierConfig(), nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.0f allocations (bound %d)", allocs, maxAllocs)
		if allocs > maxAllocs {
			t.Errorf("a Table II hierarchy made %.0f allocations, over the bound of %d", allocs, maxAllocs)
		}
	})
}
