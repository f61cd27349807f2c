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
// streamed runs. The plan counts each identity's remaining uses and the last
// one drops the cache's entry, so a capture becomes garbage when its last
// planned cell finishes and a sweep's peak trace memory is bounded by its
// live shared identities.
type TraceCache struct {
	mu            sync.Mutex
	perTraceLimit int
	plan          map[traceKey]int
	entries       map[traceKey]*traceEntry

	// disk is the optional persistent result store (see diskcache.go): a
	// cross-process store this in-memory cache consults before executing
	// and feeds after each clean cell. Nil = process-local only.
	disk *persist.Cache
	// timingIDs memoizes each distinct timing config's timingIdentity for
	// the result identities of the cells that read the store.
	timingIDs map[timingKey]string

	hits, misses, bypass uint64
	failed, rejected     uint64
	fallbackStreams      uint64
	bytes                uint64
}

// DefaultTraceLimit bounds one captured trace's storage (trace.Recorder's
// Bytes), in bytes; a capture that would exceed it is rejected (its waiters
// stream instead), trading speed for bounded memory. The bound is on bytes,
// not entries, because entries cost what their predictability makes them:
// at scale 5, lbm's and soplex's 2.2 M- and 2.1 M-entry captures take 20 KB
// and 60 KB, and the largest capture there (hmmer secure-full, 282,307
// bytes) stays 7x below the bound.
const DefaultTraceLimit = 2 << 20

// NewTraceCache returns an empty cache with the default per-trace limit.
func NewTraceCache() *TraceCache {
	return &TraceCache{
		perTraceLimit: DefaultTraceLimit,
		plan:          make(map[traceKey]int),
		entries:       make(map[traceKey]*traceEntry),
		timingIDs:     make(map[timingKey]string),
	}
}

// SetTraceLimit overrides the per-trace byte limit (0 = unlimited).
func (tc *TraceCache) SetTraceLimit(bytes int) {
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
	tc.consumeLocked(k, remaining)
	return ent, roleWait
}

// consumeLocked decrements k's planned count and drops its entry at zero.
// The last consumer holds its own reference to the entry, so dropping the
// map slot only releases the cache's.
func (tc *TraceCache) consumeLocked(k traceKey, remaining int) {
	if remaining <= 1 {
		delete(tc.plan, k)
		delete(tc.entries, k)
		return
	}
	tc.plan[k] = remaining - 1
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
// result store, when attached, interposes around the in-memory plan: it can
// satisfy the cell outright, and every clean outcome it lacks feeds it for
// future processes.
func (tc *TraceCache) run(wl workload.Workload, cfg BinaryConfig, scale int64, lim CellLimits) (*RunResult, error) {
	k := cellTraceKey(wl.Name, cfg, scale, lim.MaxInstructions)
	disk := tc.diskStore()

	// A memoized clean outcome for this exact cell skips the run. The
	// planned use is forfeited so the identity's planned use count stays
	// exact. Cells that need a registry or a live world can't be served
	// from a file; for them the read only tells whether the store already
	// holds their result, so a warm rerun rewrites nothing.
	var rid persist.ID
	held := false
	if disk != nil {
		rid = resultIdentity(k, tc.timingID(cfg))
		cr, err := disk.LoadResult(rid)
		held = err == nil
		if held && !lim.Metrics && !lim.NeedWorld {
			tc.forfeit(k)
			return resultFromStore(wl, cfg, cr), nil
		}
	}

	var res *RunResult
	var err error
	ent, role := tc.acquire(k)
	switch role {
	case roleLead:
		res, err = runStreamed(wl, cfg, scale, lim, &captureState{tc: tc, ent: ent})
	case roleWait:
		<-ent.done
		if !ent.ok || (lim.Metrics && ent.funcObs == nil) {
			// Failed/rejected capture, or a metrics cell waiting on a
			// metric-less capture: run it the ordinary way.
			tc.noteFallback()
			res, err = runStreamed(wl, cfg, scale, lim, nil)
		} else {
			tc.noteHit()
			res, err = runReplay(wl, cfg, lim, ent)
		}
	default:
		res, err = runStreamed(wl, cfg, scale, lim, nil)
	}
	if err == nil && !held {
		storeResult(disk, rid, res)
	}
	return res, err
}
