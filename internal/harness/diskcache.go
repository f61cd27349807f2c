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
// whose full identity (functional identity × timing config, with the
// format version in the file header) was ever completed cleanly returns its
// memoized cpu.Stats without building a world at all, so a second run of an
// unchanged sweep is almost pure I/O. Every clean cell computed here is
// stored for the next process.
//
// Traces are not persisted. Replaying a stored trace lost to re-executing
// the cell on the block engine in every measured pair, so an unshared cell
// just streams; captures live only in memory, for siblings within one
// sweep.
//
// The determinism contract is unchanged: the result codec round-trips
// cpu.Stats bit-exactly (IPC as IEEE-754 bits), and every disk failure —
// miss, corruption, version skew, an unavailable backend — degrades to
// recompute (and, in read-write mode, rewrite), so cold-cache, warm-cache
// and cache-off sweeps render byte-identical reports. The store stands
// aside for cells that need surfaces a file cannot carry: metric registries
// (CellLimits.Metrics) never touch it, and live worlds (CellLimits.NeedWorld,
// the micro-stats path) never read it.

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

// diskFor resolves the result store for one cell. Cells that need per-cell
// metric registries bypass it: a registry is not stored in a file, and
// serving half a cell from disk would make warm and cold metric reports
// diverge.
func (tc *TraceCache) diskFor(lim CellLimits) *persist.Cache {
	if lim.Metrics {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.disk
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

// resultIdentity digests the full identity of one cell: its functional
// identity × its normalized timing configuration.
func resultIdentity(k traceKey, cfg BinaryConfig) persist.ID {
	return persist.SumID(fmt.Sprintf(
		"result|wl=%s|scale=%d|flavour=%s|stack=%t|checks=%t|tw=%d|rz=%d|mode=%d|intercept=%d|budget=%d|%s",
		k.workload, k.scale, k.pass.Flavour, k.pass.StackProtection, k.pass.AccessChecks,
		k.pass.TokenWidth, k.pass.RedzoneBytes, k.mode, k.intercept, k.budget,
		timingIdentity(cfg)))
}

// resultFromStore reconstructs a RunResult from a memoized cell outcome.
// World and Obs are nil by design: cells that need either never read the
// result store (see diskFor and CellLimits.NeedWorld).
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
// from the byte-identical-reports contract — which is also why cells with
// metrics enabled never consult the disk (the counters then stay constant
// for the whole metrics run).
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

	// The cross-process lock plane: how often this process lost an elastic
	// unit claim to a live holder.
	r.Counter("persist.lock.contended").Add(c.LockContended)

	// Wire traffic when the store is a remote cache server (absent for a
	// local directory, so local metric dumps carry no dead rows).
	if hc, ok := pc.HTTPCounters(); ok {
		r.Counter("persist.httpbackend.gets").Add(hc.Gets)
		r.Counter("persist.httpbackend.puts").Add(hc.Puts)
		r.Counter("persist.httpbackend.deletes").Add(hc.Deletes)
		r.Counter("persist.httpbackend.lists").Add(hc.Lists)
		r.Counter("persist.httpbackend.lock_ops").Add(hc.LockOps)
		r.Counter("persist.httpbackend.renews").Add(hc.Renews)
		r.Counter("persist.httpbackend.coalesced").Add(hc.Coalesced)
		r.Counter("persist.httpbackend.coalesced_wait_ns").Add(hc.CoalescedWaitNs)
		r.Counter("persist.httpbackend.transport_errs").Add(hc.TransportErrs)
		r.Counter("persist.httpbackend.bytes_in").Add(hc.BytesIn)
		r.Counter("persist.httpbackend.bytes_out").Add(hc.BytesOut)
		r.Counter("persist.httpbackend.read_hits").Add(hc.ReadHits)
		r.Counter("persist.httpbackend.read_misses").Add(hc.ReadMisses)
		r.Counter("persist.httpbackend.read_saved_bytes").Add(hc.ReadSavedBytes)
	}

	// The hardening stack's own activity (same operational-state caveat).
	s := pc.StackCounters()
	r.Counter("persist.retry.attempts").Add(s.RetryAttempts)
	r.Counter("persist.retry.retries").Add(s.Retries)
	r.Counter("persist.retry.giveups").Add(s.RetryGiveups)
	r.Counter("persist.timeout.hits").Add(s.Timeouts)
	r.Counter("persist.breaker.trips").Add(s.BreakerTrips)
	r.Counter("persist.breaker.rejects").Add(s.BreakerRejects)
	r.Counter("persist.breaker.probes").Add(s.BreakerProbes)
	r.Counter("persist.breaker.recoveries").Add(s.BreakerRecoveries)
	r.Counter("persist.chaos.errs").Add(s.ChaosErrs)
	r.Counter("persist.chaos.torn").Add(s.ChaosTorn)
	r.Counter("persist.chaos.corrupt").Add(s.ChaosCorrupt)
	r.Counter("persist.chaos.nospace").Add(s.ChaosNoSpace)
	r.Counter("persist.chaos.latency").Add(s.ChaosLatency)
	r.Counter("persist.chaos.lockstalls").Add(s.ChaosLockStalls)
}
