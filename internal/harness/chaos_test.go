package harness

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rest/internal/persist"
)

// The storage fault plane's harness-level contract: a sweep over a hardened,
// chaos-injected persistent cache must render byte-identical reports to a
// cache-off sweep at any worker count and any fault rate — every backend
// failure, injected or real, degrades to recompute. These tests are the
// "chaos differential wall" of the robustness story; the per-layer unit
// tests live in internal/persist.

// chaosRender runs the sensitivity sweep with one trace cache and returns
// the rendered table+CSV plus the matrix for cell-wise comparison.
func chaosRender(t *testing.T, tc *TraceCache, workers int) (string, *Matrix) {
	t.Helper()
	wls := subset(t, "lbm")
	m, err := RunMatrixParallel(context.Background(), wls, Fig8SensitivityConfigs(), 1,
		ParallelOptions{Workers: workers, TraceCache: tc})
	if err != nil {
		t.Fatalf("sweep (workers=%d): %v", workers, err)
	}
	return m.RenderOverheadTable("sensitivity") + m.CSV(), m
}

// TestDiskCacheChaosDifferentialWall sweeps the same grid with fault
// injection at 0%, 10%, 50% and 100% per-op rates, cold at -j 1 and warm at
// -j 4, and requires every rendering byte-identical to the cache-off
// baseline and every cell's stats exactly equal. Every nonzero rate must
// inject errors into the cold leg. At full fault rate it also requires the
// circuit breaker to have tripped (visible in the exported persist.breaker.*
// counters) and, at the end, that the hardening stack leaked no goroutines.
//
// Deliberately not parallel: the goroutine accounting at the end needs the
// package's parallel tests quiescent.
func TestDiskCacheChaosDifferentialWall(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	offRender, offM := chaosRender(t, NewTraceCache(), 4)

	for _, rate := range []float64{0, 0.1, 0.5, 1.0} {
		spec := &persist.ChaosSpec{
			Seed: uint64(1000*rate) + 7,
			Err:  rate, Torn: rate, Corrupt: rate, NoSpace: rate, LockStall: rate,
			Delay: 50 * time.Microsecond,
		}
		opt := persist.Options{
			Chaos:           spec,
			RetryBase:       100 * time.Microsecond,
			OpTimeout:       2 * time.Second,
			BreakerCooldown: 25 * time.Millisecond,
		}
		dir := t.TempDir()

		coldTC, coldPC := diskTC(t, dir, opt)
		cold, _ := chaosRender(t, coldTC, 1)
		warmTC, warmPC := diskTC(t, dir, opt)
		warm, warmM := chaosRender(t, warmTC, 4)

		if cold != offRender {
			t.Errorf("rate=%g cold report diverges from cache-off:\noff:  %s\ncold: %s", rate, offRender, cold)
		}
		if warm != offRender {
			t.Errorf("rate=%g warm report diverges from cache-off:\noff:  %s\nwarm: %s", rate, offRender, warm)
		}
		for _, wl := range offM.Workloads {
			for _, cfg := range offM.Configs {
				got, want := warmM.Results[wl][cfg], offM.Results[wl][cfg]
				if got == nil || want == nil {
					t.Fatalf("rate=%g %s/%s: cell missing from a sweep", rate, wl, cfg)
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Errorf("rate=%g %s/%s stats diverge:\nchaos: %+v\noff:   %+v",
						rate, wl, cfg, got.Stats, want.Stats)
				}
			}
		}

		// The cold -j 1 leg draws its chaos rolls in a fixed order, so it is
		// where injection must show. The warm -j 4 leg draws only ~25 rolls
		// at rate 0.1, and goroutine interleaving decides which fault class
		// the few under 0.1 land on.
		if c := coldPC.StackCounters(); rate > 0 && c.ChaosErrs == 0 {
			t.Errorf("rate=%g cold leg injected nothing: %+v", rate, c)
		}
		s := warmPC.StackCounters()
		if s.RetryAttempts == 0 {
			t.Errorf("rate=%g: retry layer saw no ops: %+v", rate, s)
		}
		if rate == 0 && s.ChaosErrs+s.ChaosTorn+s.ChaosCorrupt+s.ChaosNoSpace+s.ChaosLockStalls != 0 {
			t.Errorf("rate=0 injected faults: %+v", s)
		}
		if rate == 1.0 {
			if s.BreakerTrips == 0 {
				t.Errorf("sustained full-rate faults never tripped the breaker: %+v", s)
			}
			if s.Retries == 0 || s.RetryGiveups == 0 {
				t.Errorf("full-rate faults never exhausted a retry budget: %+v", s)
			}
			// The transitions must be visible in the exported obs namespace.
			reg := newTestRegistry(t, warmTC)
			for _, name := range []string{
				"persist.breaker.trips", "persist.retry.giveups", "persist.chaos.errs",
			} {
				if reg[name] == 0 {
					t.Errorf("%s not exported to obs: %v", name, reg)
				}
			}
		}
	}

	// Everything the stack spawned (timeout watchers, retry sleeps) must be
	// gone once the sweeps are done.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= goroutinesBefore+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after settle",
				goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDiskCacheTornWriteCrashConsistency pins crash recovery end to end: a
// writer dying mid-publish on every store leaves each result as a bare
// prefix under its final name. The next sweep must detect and delete every
// partial entry while it recomputes to a byte-identical report, and the run
// after that must serve clean hits.
func TestDiskCacheTornWriteCrashConsistency(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	baseline, _ := chaosRender(t, NewTraceCache(), 2)

	// Phase one: every Put tears. Retries and the breaker are disabled so
	// every store attempt independently leaves its torn remnant behind.
	tornTC, _ := diskTC(t, dir, persist.Options{
		Chaos:            &persist.ChaosSpec{Torn: 1, Seed: 3},
		Retries:          -1,
		BreakerThreshold: -1,
	})
	torn, _ := chaosRender(t, tornTC, 2)
	if torn != baseline {
		t.Errorf("torn-write sweep changed the report:\nbase: %s\ntorn: %s", baseline, torn)
	}
	remnants, err := filepath.Glob(filepath.Join(dir, "results", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(remnants) == 0 {
		t.Fatalf("torn writes left no partial entries to recover from")
	}

	// Recovery: the sweep rejects each remnant on validation and
	// recomputes, and the rewrites heal the store.
	healTC, healPC := diskTC(t, dir, persist.Options{})
	heal, _ := chaosRender(t, healTC, 2)
	if heal != baseline {
		t.Errorf("recovery sweep changed the report")
	}
	if c := healPC.Counters(); c.Corruptions == 0 || c.Stores == 0 {
		t.Errorf("recovery did not evict and rewrite the partial entries: %+v", c)
	}

	warmTC, warmPC := diskTC(t, dir, persist.Options{})
	warm, _ := chaosRender(t, warmTC, 2)
	if warm != baseline {
		t.Errorf("healed warm sweep changed the report")
	}
	if c := warmPC.Counters(); c.ResultHits == 0 || c.Corruptions != 0 {
		t.Errorf("store did not heal: %+v", c)
	}
}

// TestDiskCacheVanishedDirMidSweep pins the degrade-to-recompute guarantee
// against the cache directory disappearing out from under an attached,
// already-open cache: every subsequent backend op fails, and the sweep must
// complete with no error and a byte-identical report — the restbench
// analogue of "exit 0".
func TestDiskCacheVanishedDirMidSweep(t *testing.T) {
	t.Parallel()
	baseline, baseM := chaosRender(t, NewTraceCache(), 2)

	dir := t.TempDir()
	coldTC, pc := diskTC(t, dir, persist.Options{})
	cold, _ := chaosRender(t, coldTC, 2)
	if cold != baseline {
		t.Errorf("cold sweep diverges from cache-off")
	}
	beforeGone := pc.Counters()

	// The directory vanishes while the cache handle stays attached.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	goneTC := NewTraceCache()
	goneTC.AttachDisk(pc)
	gone, goneM := chaosRender(t, goneTC, 2)
	if gone != baseline {
		t.Errorf("vanished-dir sweep changed the report:\nbase: %s\ngone: %s", baseline, gone)
	}
	for _, wl := range baseM.Workloads {
		for _, cfg := range baseM.Configs {
			got, want := goneM.Results[wl][cfg], baseM.Results[wl][cfg]
			if got == nil || want == nil {
				t.Fatalf("%s/%s: cell missing after the dir vanished", wl, cfg)
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Errorf("%s/%s stats diverge after the dir vanished", wl, cfg)
			}
		}
	}
	if c := pc.Counters(); c.ResultHits != beforeGone.ResultHits || c.TraceHits != beforeGone.TraceHits {
		t.Errorf("a vanished dir cannot serve hits: before %+v, after %+v", beforeGone, c)
	}
}
