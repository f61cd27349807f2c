package harness

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rest/internal/persist"
)

// The result store's degrade-to-recompute contract, pinned by damaging its
// files on disk: a truncated, bit-flipped or unreadable result file costs
// its cell one recompute and never a wrong byte or a failed sweep, and a
// vanished store costs every cell one. The per-file unit tests live in
// internal/persist.

// sensRender runs lbm's sensitivity sweep through tc and returns the
// rendered table+CSV plus the matrix for cell-wise comparison.
func sensRender(t *testing.T, tc *TraceCache, workers int) (string, *Matrix) {
	t.Helper()
	m, err := RunMatrixParallel(context.Background(), subset(t, "lbm"), Fig8SensitivityConfigs(), 1,
		ParallelOptions{Workers: workers, TraceCache: tc})
	if err != nil {
		t.Fatalf("sweep (workers=%d): %v", workers, err)
	}
	return m.RenderOverheadTable("sensitivity") + m.CSV(), m
}

// resultFiles lists the result files a store in dir holds, sorted.
func resultFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "results", "*.res"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDiskCacheTornWriteCrashConsistency pins crash recovery end to end: a
// writer dying mid-publish leaves a result as a bare prefix under its final
// name (the shape an atomic rename forbids, but a torn disk can still
// show). Every result file is truncated in place, each to a different
// length; the next sweep must detect and delete every partial entry while
// it recomputes to a byte-identical report, and the run after that must
// serve clean hits.
func TestDiskCacheTornWriteCrashConsistency(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	baseline, _ := sensRender(t, NewTraceCache(), 2)

	coldTC, _ := diskTC(t, dir, persist.Options{})
	if cold, _ := sensRender(t, coldTC, 2); cold != baseline {
		t.Errorf("cold sweep changed the report")
	}
	files := resultFiles(t, dir)
	if len(files) == 0 {
		t.Fatalf("cold sweep left nothing on disk to tear")
	}
	for i, f := range files {
		if err := os.Truncate(f, int64(i*resultFileBytes/len(files))); err != nil {
			t.Fatal(err)
		}
	}

	healTC, healPC := diskTC(t, dir, persist.Options{})
	if heal, _ := sensRender(t, healTC, 2); heal != baseline {
		t.Errorf("recovery sweep changed the report")
	}
	n := uint64(len(files))
	if c := healPC.Counters(); c.Corruptions != n || c.ResultHits != 0 || c.Stores != n {
		t.Errorf("recovery did not evict and rewrite all %d partial entries: %+v", n, c)
	}

	warmTC, warmPC := diskTC(t, dir, persist.Options{})
	if warm, _ := sensRender(t, warmTC, 2); warm != baseline {
		t.Errorf("healed warm sweep changed the report")
	}
	if c := warmPC.Counters(); c.ResultHits != n || c.Corruptions != 0 {
		t.Errorf("store did not heal: %+v", c)
	}
}

// TestDiskCacheDamagedStore damages a warm store three ways at once — one
// result truncated, one with a flipped bit, one replaced by a directory,
// which no process can read as a file — and sweeps it at -j 1, 2 and 4.
// Every report is byte-identical to the cache-off one. The first warm run
// recomputes exactly the three cells, counts two corruptions and the
// directory's failed read and failed rewrite as unavailable, and heals the
// two files; every later run misses exactly the directory's cell.
func TestDiskCacheDamagedStore(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	baseline, baseM := sensRender(t, NewTraceCache(), 2)

	coldTC, _ := diskTC(t, dir, persist.Options{})
	sensRender(t, coldTC, 2)
	files := resultFiles(t, dir)
	if len(files) < 3 {
		t.Fatalf("cold sweep stored %d results, want at least 3", len(files))
	}
	if err := os.Truncate(files[0], resultFileBytes/2); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(files[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(files[2]); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(files[2], 0o755); err != nil {
		t.Fatal(err)
	}

	n := uint64(len(files))
	want := []persist.Counters{
		{ResultHits: n - 3, ResultMisses: 3, Stores: 2, Corruptions: 2, Unavailable: 2, Bytes: 2 * resultFileBytes},
		{ResultHits: n - 1, ResultMisses: 1, Unavailable: 2},
		{ResultHits: n - 1, ResultMisses: 1, Unavailable: 2},
	}
	for i, workers := range []int{1, 2, 4} {
		tc, pc := diskTC(t, dir, persist.Options{})
		got, m := sensRender(t, tc, workers)
		if got != baseline {
			t.Errorf("-j %d over the damaged store changed the report:\nbase: %s\ngot:  %s", workers, baseline, got)
		}
		for _, wl := range baseM.Workloads {
			for _, cfg := range baseM.Configs {
				if !reflect.DeepEqual(m.Result(wl, cfg).Stats, baseM.Result(wl, cfg).Stats) {
					t.Errorf("-j %d %s/%s stats diverge over the damaged store", workers, wl, cfg)
				}
			}
		}
		if c := pc.Counters(); c != want[i] {
			t.Errorf("-j %d counters %+v, want %+v", workers, c, want[i])
		}
		if i == 0 {
			reg := newTestRegistry(t, tc)
			if reg["harness.diskcache.unavailable"] != 2 || reg["harness.diskcache.corruptions"] != 2 {
				t.Errorf("damage not exported to harness.diskcache.*: %v", reg)
			}
		}
	}
}

// TestDiskCacheVanishedDirMidSweep pins the degrade-to-recompute guarantee
// against the cache directory disappearing out from under an attached,
// already-open cache: every subsequent store op fails, and the sweep must
// complete with no error and a byte-identical report — the restbench
// analogue of "exit 0".
func TestDiskCacheVanishedDirMidSweep(t *testing.T) {
	t.Parallel()
	baseline, baseM := sensRender(t, NewTraceCache(), 2)

	dir := t.TempDir()
	coldTC, pc := diskTC(t, dir, persist.Options{})
	cold, _ := sensRender(t, coldTC, 2)
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
	gone, goneM := sensRender(t, goneTC, 2)
	if gone != baseline {
		t.Errorf("vanished-dir sweep changed the report:\nbase: %s\ngone: %s", baseline, gone)
	}
	for _, wl := range baseM.Workloads {
		for _, cfg := range baseM.Configs {
			got, want := goneM.Result(wl, cfg), baseM.Result(wl, cfg)
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
