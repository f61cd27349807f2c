package harness

import (
	"encoding/json"
	"fmt"

	"rest/internal/obs"
	"rest/internal/persist"
	"rest/internal/workload"
	"rest/internal/world"
)

// The persistent tier of the trace cache. The in-memory cache dies with the
// process: every restbench invocation would re-time the whole grid.
// AttachDisk extends it across processes with the result store: a cell
// whose full identity (ModelVersion × functional identity × timing config,
// with the format version in the file header) was ever completed cleanly
// returns its memoized cpu.Stats without building a world at all, so a
// second run of an unchanged sweep is almost pure I/O. Every clean cell
// computed here is stored for the next process.
//
// Traces are not persisted. Replaying a stored trace lost to re-executing
// the cell on the block engine in every measured pair, so an unshared cell
// just streams; captures live only in memory, for siblings within one
// sweep.
//
// The determinism contract is unchanged: the result codec round-trips
// cpu.Stats bit-exactly (IPC as IEEE-754 bits), and every disk failure —
// miss, corruption, version skew, an unreadable file — degrades to
// recompute (and, in read-write mode, rewrite), so cold-cache, warm-cache
// and cache-off sweeps render byte-identical reports. Cells that need
// surfaces a file cannot carry — a metric registry (CellLimits.Metrics) or a
// live world (CellLimits.NeedWorld, the micro-stats path) — never read the
// store, since a served cell has neither and warm and cold reports would
// diverge; they still store their clean results for the cells that can.

// AttachDisk backs the trace cache with a persistent store. Read-only or
// read-write behaviour follows how the persist cache was opened. Call before
// the first sweep; the counters it accumulates surface as
// harness.diskcache.* metrics and via DiskCounters.
func (tc *TraceCache) AttachDisk(pc *persist.Cache) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.disk = pc
}

// DiskCounters reports the attached persistent store's activity (zero value
// when none is attached).
func (tc *TraceCache) DiskCounters() persist.Counters {
	tc.mu.Lock()
	pc := tc.disk
	tc.mu.Unlock()
	if pc == nil {
		return persist.Counters{}
	}
	return pc.Counters()
}

// timingIdentity digests a cell's timing-only knobs: the core choice and the
// literal CPU/cache overrides (JSON keeps field order stable). Two spellings
// that differ only in defaulted fields digest differently — that can only
// cost a miss, never return a wrong result.
func timingIdentity(cfg BinaryConfig) string {
	cpuJSON, hierJSON := "default", "default"
	if cfg.CPU != nil {
		raw, _ := json.Marshal(cfg.CPU)
		cpuJSON = string(raw)
	}
	if cfg.Hier != nil {
		raw, _ := json.Marshal(cfg.Hier)
		hierJSON = string(raw)
	}
	return fmt.Sprintf("inorder=%t|cpu=%s|hier=%s", cfg.InOrder, cpuJSON, hierJSON)
}

// ModelVersion names the simulator's behaviour in every result identity.
// The identity spells a cell's workload and its configuration, but not the
// code that simulates them or the defaults a "default" config resolves to,
// so a change that moves any simulated number must bump this: every stored
// result then misses once and is recomputed, where it would otherwise be
// served stale. TestModelGolden digests a fixed grid's cpu.Stats and
// outcome checksums and fails when they move while this constant does not.
// A change that only makes the simulator faster leaves the digest, and so
// this constant, alone.
const ModelVersion = 1

// resultIdentity digests the full identity of one cell: the model version ×
// its functional identity × its normalized timing configuration.
func resultIdentity(k traceKey, cfg BinaryConfig) persist.ID {
	return persist.SumID(fmt.Sprintf(
		"result|model=%d|wl=%s|scale=%d|flavour=%s|stack=%t|checks=%t|tw=%d|rz=%d|mode=%d|intercept=%d|budget=%d|%s",
		ModelVersion, k.workload, k.scale, k.pass.Flavour, k.pass.StackProtection, k.pass.AccessChecks,
		k.pass.TokenWidth, k.pass.RedzoneBytes, k.mode, k.intercept, k.budget,
		timingIdentity(cfg)))
}

// resultFromStore reconstructs a RunResult from a memoized cell outcome.
// World and Obs are nil by design: cells that need either never read the
// result store.
func resultFromStore(wl workload.Workload, cfg BinaryConfig, cr *persist.CellResult) *RunResult {
	stats := cr.Stats
	return &RunResult{
		Workload: wl.Name,
		Config:   cfg.Name,
		Cycles:   stats.Cycles,
		Stats:    &stats,
		Outcome:  world.Outcome{Checksum: cr.Checksum},
		Source:   "result-store",
	}
}

// storeResult memoizes one clean cell outcome; failures are advisory (the
// run already succeeded) and surface only as missing future hits.
func storeResult(disk *persist.Cache, rid persist.ID, res *RunResult) {
	if disk == nil || disk.ReadOnly() || res == nil || res.Stats == nil ||
		res.Stats.Exception != nil || res.Outcome.Detected() {
		return
	}
	_ = disk.StoreResult(rid, &persist.CellResult{
		Stats:    *res.Stats,
		Checksum: res.Outcome.Checksum,
	})
}

// recordDiskObs exports the persistent store's counters into a sweep
// registry as harness.diskcache.* metrics. Like the in-memory counters they
// are the store's lifetime totals; unlike them they describe operational
// state (what happened to be on disk), so they are deliberately excluded
// from the byte-identical-reports contract.
func (tc *TraceCache) recordDiskObs(r *obs.Registry) {
	tc.mu.Lock()
	pc := tc.disk
	tc.mu.Unlock()
	if pc == nil {
		return
	}
	c := pc.Counters()
	r.Counter("harness.diskcache.result_hits").Add(c.ResultHits)
	r.Counter("harness.diskcache.result_misses").Add(c.ResultMisses)
	r.Counter("harness.diskcache.stores").Add(c.Stores)
	r.Counter("harness.diskcache.corruptions").Add(c.Corruptions)
	r.Counter("harness.diskcache.unavailable").Add(c.Unavailable)
	r.Counter("harness.diskcache.bytes").Add(c.Bytes)
}
