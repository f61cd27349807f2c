package harness

import (
	"sync"

	"rest/internal/core"
	"rest/internal/obs"
	"rest/internal/persist"
	"rest/internal/prog"
	"rest/internal/rt"
	"rest/internal/trace"
	"rest/internal/workload"
	"rest/internal/world"
)

// The trace cache: execute once, time many.
//
// A sweep cell is a deterministic function of (workload, scale, pass config,
// mode, libc interception, instruction budget) — its functional identity —
// plus the timing knobs (CPU config, cache hierarchy, core choice). Cells
// sharing a functional identity produce byte-identical dynamic traces, so a
// sensitivity sweep that varies only timing knobs re-executes the same
// functional simulation N times for N timing points. The TraceCache removes
// that: the first cell of each shared identity captures its trace (and, when
// metrics are on, its functional-plane registry) while running normally; its
// siblings replay the capture through their own timing model via
// world.BuildReplay/ReplayTimed.
//
// Determinism contract: sweep reports stay byte-identical at any worker
// count and with the cache on or off. Three design points carry that:
//
//   - Replay is bit-exact (the trace.Replayer token shadow; pinned by the
//     replay differential tests), so a replayed cell's Stats/Outcome equal
//     its streamed run's.
//   - Sharing is planned, not discovered: Plan registers the whole grid
//     before any cell runs, so which cells capture, replay or bypass is a
//     function of the grid alone, never of scheduling order. Keys used only
//     once bypass the cache entirely and pay nothing.
//   - Only fully clean cells publish (no error, no detection): a cached
//     trace is therefore always complete, which is what makes replaying it
//     under a different timing configuration exact — the timing model is
//     free to stop pulling early, but nothing can be missing.
//
// Captures are single-flight: one leader per identity runs while its waiters
// block on the entry's done channel; a leader that fails (or whose trace
// tripped the per-trace byte limit) releases its waiters into ordinary
// streamed runs. Entries are refcounted by the plan and dropped at last use,
// so a sweep's peak trace memory is bounded by its live shared identities.
type TraceCache struct {
	mu            sync.Mutex
	perTraceLimit uint64
	plan          map[traceKey]int
	entries       map[traceKey]*traceEntry

	// disk is the optional persistent tier (see diskcache.go): a
	// cross-process trace + result store this in-memory cache consults
	// before executing and feeds after capturing. Nil = process-local only.
	disk *persist.Cache

	hits, misses, bypass uint64
	failed, rejected     uint64
	fallbackStreams      uint64
	bytes                uint64
}

// DefaultTraceLimitBytes bounds one captured trace's column storage (64 MiB
// holds 2,097,152 entries at trace.EntryBytes = 32 bytes each); a capture
// that would exceed it is rejected and its waiters stream instead, trading
// speed for bounded memory. A disk-only capture, which streams into the
// store without a Recorder, is held to the same entry count, so the store
// receives exactly the traces a recorded capture would give it.
const DefaultTraceLimitBytes = 64 << 20

// NewTraceCache returns an empty cache with the default per-trace limit.
func NewTraceCache() *TraceCache {
	return &TraceCache{
		perTraceLimit: DefaultTraceLimitBytes,
		plan:          make(map[traceKey]int),
		entries:       make(map[traceKey]*traceEntry),
	}
}

// SetTraceLimit overrides the per-trace byte limit (0 = unlimited).
func (tc *TraceCache) SetTraceLimit(bytes uint64) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.perTraceLimit = bytes
}

// traceKey is a cell's functional identity. Timing knobs (CPU, Hier,
// InOrder) are deliberately absent: cells differing only in them share one
// dynamic trace. The pass config is stored normalized so defaulted and
// explicit spellings of the same build compare equal.
type traceKey struct {
	workload  string
	scale     int64
	pass      prog.PassConfig
	mode      core.Mode
	intercept int8 // -1 flavour default, 0 forced off, 1 forced on
	budget    uint64
}

// cellTraceKey derives the functional identity of one grid cell.
func cellTraceKey(wl string, cfg BinaryConfig, scale int64, budget uint64) traceKey {
	k := traceKey{
		workload: wl,
		scale:    scale,
		pass:     cfg.Pass.Normalized(),
		mode:     cfg.Mode,
		budget:   budget,
	}
	switch {
	case cfg.InterceptLibc == nil:
		k.intercept = -1
	case *cfg.InterceptLibc:
		k.intercept = 1
	}
	return k
}

// captureTokenWidth is the token width the capture's replay shadow must
// track: the pass's width for REST builds, 0 (no shadow) otherwise.
func captureTokenWidth(p prog.PassConfig) uint64 {
	p = p.Normalized()
	if p.Flavour == rt.REST {
		return p.TokenWidth
	}
	return 0
}

// traceEntry is one shared functional identity's capture slot.
type traceEntry struct {
	done    chan struct{} // closed when the capture resolves either way
	closed  bool          // guarded by TraceCache.mu
	ok      bool          // immutable after done closes
	rec     *trace.Recorder
	outcome world.Outcome
	funcObs *obs.Registry // nil when the capture ran without metrics

	// refs counts waiters whose replay (or fallback) is still running;
	// detached is set once the plan has no further uses. Both guarded by
	// TraceCache.mu; together they decide when the capture's blocks can be
	// recycled (see releaseLocked).
	refs     int
	detached bool
}

// cacheRole is a cell's relationship to the cache.
type cacheRole int

const (
	roleBypass cacheRole = iota // unshared identity: stream, don't record
	roleLead                    // first cell of a shared identity: capture
	roleWait                    // sibling cell: wait for the capture, replay
)

// Plan registers an upcoming grid so the cache knows, before any cell runs,
// which functional identities are shared. Identities planned only once (the
// common case for Figure 7/8 grids, where every config differs functionally)
// bypass the cache entirely. Additive: concurrent or successive sweeps may
// plan onto one shared cache.
func (tc *TraceCache) Plan(wls []workload.Workload, cfgs []BinaryConfig, scale int64, budget uint64) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, wl := range wls {
		for _, cfg := range cfgs {
			tc.plan[cellTraceKey(wl.Name, cfg, scale, budget)]++
		}
	}
}

// planUnit registers n upcoming uses of one functional identity. The
// elastic scheduler plans per-unit at claim time — it cannot plan the grid
// up front like Plan, because which units this process runs is decided by
// the pool, one claim at a time. Cross-process deduplication does not need
// the in-memory plan at all; it rides the persistent store's single-flight
// capture locks instead.
func (tc *TraceCache) planUnit(k traceKey, n int) {
	tc.mu.Lock()
	tc.plan[k] += n
	tc.mu.Unlock()
}

// diskStore returns the attached persistent tier (nil when none).
func (tc *TraceCache) diskStore() *persist.Cache {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.disk
}

// acquire resolves one planned cell's role. It decrements the cell's planned
// use count; the last user of an identity also drops its entry, bounding the
// cache's memory to the live shared identities.
func (tc *TraceCache) acquire(k traceKey) (*traceEntry, cacheRole) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	remaining := tc.plan[k]
	ent := tc.entries[k]
	if ent == nil {
		if remaining > 0 {
			tc.consumeLocked(k, remaining)
		}
		if remaining < 2 {
			tc.bypass++
			return nil, roleBypass
		}
		ent = &traceEntry{done: make(chan struct{})}
		tc.entries[k] = ent
		tc.misses++
		return ent, roleLead
	}
	ent.refs++
	tc.consumeLocked(k, remaining)
	return ent, roleWait
}

// consumeLocked decrements k's planned count and drops its entry at zero.
// The last consumer holds its own reference to the entry, so dropping the
// map slot only releases the cache's.
func (tc *TraceCache) consumeLocked(k traceKey, remaining int) {
	if remaining <= 1 {
		delete(tc.plan, k)
		if ent := tc.entries[k]; ent != nil {
			ent.detached = true
			tc.releaseLocked(ent)
		}
		delete(tc.entries, k)
		return
	}
	tc.plan[k] = remaining - 1
}

// release drops one waiter's use of ent once its replay (or fallback run)
// has finished with the capture.
func (tc *TraceCache) release(ent *traceEntry) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	ent.refs--
	tc.releaseLocked(ent)
}

// releaseLocked recycles the capture's trace blocks once nothing can touch
// them again: the plan holds no further uses (detached), no waiter's replay
// is in flight (refs == 0), and the capture has resolved (closed — a leader
// still running would otherwise publish into a released recorder). Purely a
// memory optimization; counters and results are unaffected.
func (tc *TraceCache) releaseLocked(ent *traceEntry) {
	if ent.detached && ent.refs == 0 && ent.closed && ent.rec != nil {
		ent.rec.Release()
		ent.rec = nil
	}
}

// forfeit releases one planned use of k without running it (a skipped sweep
// cell). Safe to call concurrently with the identity's leader publishing.
func (tc *TraceCache) forfeit(k traceKey) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if remaining, ok := tc.plan[k]; ok {
		tc.consumeLocked(k, remaining)
	}
}

// publish resolves a leader's capture: a complete clean trace releases the
// waiters into replays; an overflowed recorder rejects the capture and the
// waiters stream. Idempotent with fail via the closed flag.
func (tc *TraceCache) publish(ent *traceEntry, rec *trace.Recorder, out world.Outcome, funcObs *obs.Registry) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if ent.closed {
		return
	}
	ent.closed = true
	if rec.Overflowed() {
		tc.rejected++
	} else {
		ent.ok = true
		ent.rec = rec
		ent.outcome = out
		ent.funcObs = funcObs
		tc.bytes += rec.Bytes()
	}
	close(ent.done)
	// All waiters may already have forfeited (skipped cells): recycle now.
	tc.releaseLocked(ent)
}

// fail resolves a leader's capture as unusable (cell error, detection or
// panic); the waiters fall back to streamed runs.
func (tc *TraceCache) fail(ent *traceEntry) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if ent.closed {
		return
	}
	ent.closed = true
	tc.failed++
	close(ent.done)
}

func (tc *TraceCache) noteHit() {
	tc.mu.Lock()
	tc.hits++
	tc.mu.Unlock()
}

func (tc *TraceCache) noteFallback() {
	tc.mu.Lock()
	tc.fallbackStreams++
	tc.mu.Unlock()
}

// recordObs publishes the cache counters into a sweep registry as
// harness.trace_cache.* counters. Every counter is a deterministic function
// of the planned grids and their cells' (deterministic) outcomes, never of
// scheduling, so the export honours the sweep determinism contract. The
// counters are the cache's lifetime totals: a cache shared across sweeps
// reports cumulatively at each sweep's end.
func (tc *TraceCache) recordObs(r *obs.Registry) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	r.Counter("harness.trace_cache.hits").Add(tc.hits)
	r.Counter("harness.trace_cache.misses").Add(tc.misses)
	r.Counter("harness.trace_cache.bypass").Add(tc.bypass)
	r.Counter("harness.trace_cache.capture_failed").Add(tc.failed)
	r.Counter("harness.trace_cache.rejected").Add(tc.rejected)
	r.Counter("harness.trace_cache.fallback_streams").Add(tc.fallbackStreams)
	r.Counter("harness.trace_cache.bytes").Add(tc.bytes)
}

// Counters reports (hits, misses, bypass) — the headline numbers restbench
// prints after a cached sweep.
func (tc *TraceCache) Counters() (hits, misses, bypass uint64) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.hits, tc.misses, tc.bypass
}

// run executes one cell through the cache (RunCached's non-nil path). The
// disk tiers, when attached and applicable to this cell (see diskFor),
// interpose around the in-memory plan: the result store can satisfy the
// cell outright, the trace store can substitute for a live capture, and
// every clean outcome feeds both stores for future processes.
func (tc *TraceCache) run(wl workload.Workload, cfg BinaryConfig, scale int64, lim CellLimits) (*RunResult, error) {
	k := cellTraceKey(wl.Name, cfg, scale, lim.MaxInstructions)
	disk := tc.diskFor(lim)

	// Tier 1: a memoized clean outcome for this exact cell skips even the
	// replay. The planned use is forfeited so siblings' refcounts stay
	// exact. Cells that need a live world can't be served from a file.
	if disk != nil && !lim.NeedWorld {
		if cr, err := disk.LoadResult(resultIdentity(k, cfg)); err == nil {
			tc.forfeit(k)
			return resultFromStore(wl, cfg, cr), nil
		}
	}

	ent, role := tc.acquire(k)
	switch role {
	case roleLead:
		// Resolve the entry however this cell exits. publish/fail are
		// idempotent, so on clean paths this is a no-op; its real job is a
		// panic unwinding through the disk tiers into the sweep engine's
		// containment, which must not strand the waiting siblings.
		defer tc.fail(ent)
		// Tier 2: a stored capture for this functional identity replaces
		// the live run; it is published for the waiting siblings exactly as
		// a live capture would be.
		if rec, out, ok := tc.loadDiskTrace(disk, k); ok {
			res, err := tc.runLeadFromDisk(wl, cfg, lim, ent, rec, out)
			return tc.finishCell(disk, k, cfg, res, err)
		}
		cap, rec, out, unlock := tc.captureToDisk(disk, k, &captureState{tc: tc, ent: ent})
		defer unlock()
		if rec != nil {
			// Another process finished this capture while we waited on its
			// lock: reuse it instead of re-executing.
			res, err := tc.runLeadFromDisk(wl, cfg, lim, ent, rec, out)
			return tc.finishCell(disk, k, cfg, res, err)
		}
		res, err := runStreamed(wl, cfg, scale, lim, cap)
		return tc.finishCell(disk, k, cfg, res, err)
	case roleWait:
		defer tc.release(ent)
		<-ent.done
		if !ent.ok || (lim.Metrics && ent.funcObs == nil) {
			// Failed/rejected capture, or a metrics cell waiting on a
			// metric-less capture: run it the ordinary way.
			tc.noteFallback()
			res, err := runStreamed(wl, cfg, scale, lim, nil)
			return tc.finishCell(disk, k, cfg, res, err)
		}
		tc.noteHit()
		res, err := runReplay(wl, cfg, lim, ent)
		return tc.finishCell(disk, k, cfg, res, err)
	default:
		if disk != nil {
			// Unshared in this process, but perhaps not across processes:
			// replay a stored capture if one exists, otherwise capture to
			// disk while streaming (a private capture, published to no one).
			if rec, out, ok := tc.loadDiskTrace(disk, k); ok {
				res, err := replayLocal(wl, cfg, lim, rec, out)
				return tc.finishCell(disk, k, cfg, res, err)
			}
			cap, rec, out, unlock := tc.captureToDisk(disk, k, &captureState{tc: tc})
			defer unlock()
			if rec != nil {
				res, err := replayLocal(wl, cfg, lim, rec, out)
				return tc.finishCell(disk, k, cfg, res, err)
			}
			res, err := runStreamed(wl, cfg, scale, lim, cap)
			return tc.finishCell(disk, k, cfg, res, err)
		}
		return runStreamed(wl, cfg, scale, lim, nil)
	}
}

// finishCell memoizes a clean cell outcome in the result store on its way
// out. Pass-through for errors, detections and detached disks.
func (tc *TraceCache) finishCell(disk *persist.Cache, k traceKey, cfg BinaryConfig, res *RunResult, err error) (*RunResult, error) {
	if err == nil && disk != nil {
		storeResult(disk, resultIdentity(k, cfg), res)
	}
	return res, err
}
