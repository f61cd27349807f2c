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
// that. RunMatrixParallel hands each workload's cells of one functional
// identity, a group, to one worker, which runs them in grid order: the
// first of them to run captures its trace (and, when metrics are on, its
// functional-plane registry) while running normally, and the rest replay
// the capture through their own timing model via
// world.BuildReplay/ReplayTimed. The capture is dropped with its group, so
// a sweep holds at most one trace per worker and no worker waits on
// another.
//
// Determinism contract: sweep reports stay byte-identical at any worker
// count and with the cache on or off. Three design points carry that:
//
//   - Replay is bit-exact (the trace.Replayer token shadow; pinned by the
//     replay differential tests), so a replayed cell's Stats/Outcome equal
//     its streamed run's.
//   - Roles follow the grid, not the schedule: the groups are formed from
//     the config list before any cell runs, so which cells capture, replay
//     or bypass depends on the grid and the result store alone. A cell
//     alone in its group bypasses the cache entirely and pays nothing.
//   - Only fully clean cells keep their capture (no error, no detection): a
//     kept trace is therefore always complete, which is what makes
//     replaying it under a different timing configuration exact — the
//     timing model is free to stop pulling early, but nothing can be
//     missing. The cells after a failed capture, or one that tripped the
//     per-trace byte limit, stream instead.
type TraceCache struct {
	mu            sync.Mutex
	perTraceLimit int

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
// Bytes), in bytes; a capture that would exceed it is rejected (the rest of
// its group streams instead), trading speed for bounded memory. The bound
// is on bytes, not entries, because entries cost what their predictability
// makes them: at scale 5, lbm's and soplex's secure-full captures, of 2.2 M
// and 2.1 M entries, take 20,484 and 68,432 bytes, and the largest capture
// there (hmmer secure-full, 287,475 bytes) stays 7x below the bound.
const DefaultTraceLimit = 2 << 20

// NewTraceCache returns an empty cache with the default per-trace limit.
func NewTraceCache() *TraceCache {
	return &TraceCache{
		perTraceLimit: DefaultTraceLimit,
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

// group is what a worker keeps while it runs one workload's cells of one
// functional identity, in grid order (see RunMatrixParallel).
type group struct {
	more     bool    // a later cell of the group follows the running one
	captured bool    // a cell of the group has captured, kept or not
	cap      capture // the kept capture; cap.rec is nil when there is none
}

// capture is a recorded dynamic trace, with the outcome and the
// functional-plane registry (nil without metrics) of the run that recorded
// it: what its replays return in place of running the functional layers.
type capture struct {
	rec     *trace.Recorder
	outcome world.Outcome
	funcObs *obs.Registry
}

// diskStore returns the attached persistent tier (nil when none).
func (tc *TraceCache) diskStore() *persist.Cache {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.disk
}

// recordObs publishes the cache counters into a sweep registry as
// harness.trace_cache.* counters. Every counter is a deterministic function
// of the swept grids, the result store and their cells' (deterministic)
// outcomes, never of scheduling, so the export honours the sweep
// determinism contract. The counters are the cache's lifetime totals: a
// cache shared across sweeps reports cumulatively at each sweep's end.
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

// count adds n to counter c, one of tc's.
func (tc *TraceCache) count(c *uint64, n uint64) {
	tc.mu.Lock()
	*c += n
	tc.mu.Unlock()
}

// run executes one cell through the cache. The result store, when
// attached, can satisfy the cell outright, and every clean outcome it lacks
// feeds it for future processes. Otherwise the cell runs by its place in g,
// the group a sweep's worker is running it in: the first cell of a group to
// run captures when a later one follows it, and the later ones replay the
// capture.
func (tc *TraceCache) run(wl workload.Workload, cfg BinaryConfig, scale int64, lim CellLimits, g *group) (*RunResult, error) {
	disk := tc.diskStore()

	// A memoized clean outcome for this exact cell skips the run. A cell
	// that needs a registry can't be served from a file; for it the read
	// only tells whether the store already holds its result, so a warm
	// rerun rewrites nothing.
	var rid persist.ID
	held := false
	if disk != nil {
		rid = resultIdentity(cellTraceKey(wl.Name, cfg, scale, lim.MaxInstructions), tc.timingID(cfg))
		cr, err := disk.LoadResult(rid)
		held = err == nil
		if held && !lim.Metrics {
			return resultFromStore(wl, cfg, cr), nil
		}
	}

	var res *RunResult
	var err error
	switch {
	case !g.captured && !g.more:
		// No later cell of this identity would replay a capture.
		tc.count(&tc.bypass, 1)
		res, err = runStreamed(wl, cfg, scale, lim, nil)
	case !g.captured:
		g.captured = true
		res, err = tc.runCapture(wl, cfg, scale, lim, &g.cap)
	case g.cap.rec != nil:
		tc.count(&tc.hits, 1)
		res, err = runReplay(wl, cfg, lim, &g.cap)
	default:
		// The capture failed or was rejected: run the cell the ordinary way.
		tc.count(&tc.fallbackStreams, 1)
		res, err = runStreamed(wl, cfg, scale, lim, nil)
	}
	if err == nil && !held {
		storeResult(disk, rid, res)
	}
	return res, err
}

// runCapture runs a group's first cell, recording its trace into c for the
// cells that follow, and counts how the capture ends, a panic included:
// kept, rejected for passing the per-trace limit, or failed with its cell.
// Only a kept capture leaves c.rec set.
func (tc *TraceCache) runCapture(wl workload.Workload, cfg BinaryConfig, scale int64, lim CellLimits, c *capture) (res *RunResult, err error) {
	tc.count(&tc.misses, 1)
	*c = capture{rec: trace.NewRecorder(captureTokenWidth(cfg.Pass), tc.perTraceLimit)}
	defer func() {
		switch {
		case res == nil: // the cell failed, or panicked
			tc.count(&tc.failed, 1)
			*c = capture{}
		case c.rec.Overflowed():
			tc.count(&tc.rejected, 1)
			*c = capture{}
		default:
			tc.count(&tc.bytes, c.rec.Bytes())
			c.outcome = res.Outcome
		}
	}()
	return runStreamed(wl, cfg, scale, lim, c)
}
