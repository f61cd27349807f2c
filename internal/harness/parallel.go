package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rest/internal/obs"
	"rest/internal/sim"
	"rest/internal/workload"
)

// The parallel sweep engine. Every cell of the workload × config grid is an
// independent simulation: world.Build assembles a fully self-contained World
// (its own memory, allocator, token register with a per-world seeded RNG,
// cache hierarchy, predictor and core), so cells can run concurrently with
// no shared mutable state. The engine guarantees that the resulting Matrix
// is byte-identical to streaming every cell in grid order on one goroutine,
// at any worker count: cells are deterministic functions of (workload,
// config, scale), and each lands in its own grid slot regardless of
// completion order. The determinism differential tests pin this guarantee.

// ParallelOptions configures RunMatrixParallel.
type ParallelOptions struct {
	// Workers is the worker-pool size. Zero or negative selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// FailFast cancels the cells not yet started as soon as one cell
	// fails. Off by default: every cell runs and all failures are
	// aggregated into one MatrixError.
	FailFast bool
	// CellTimeout is each cell's wall-clock watchdog (0 = none). A cell
	// that exceeds it fails with a *sim.BudgetExceededError and becomes an
	// annotated hole; its siblings keep running.
	CellTimeout time.Duration
	// CellInstrBudget caps each cell's simulated user instructions
	// (0 = the simulator's own runaway cap).
	CellInstrBudget uint64
	// Metrics gives every cell a private obs.Registry and merges them in
	// grid order into Matrix.Obs after assembly (with the harness.* sweep
	// counters added). The aggregate is byte-identical at any worker count.
	Metrics bool
	// Engine selects every cell's functional-simulator engine (see
	// CellLimits.Engine). The default sim.EngineAuto resolves to the
	// decoded-block engine; the engine differential tests sweep both and
	// assert byte-identical matrices.
	Engine sim.Engine
	// TraceCache, when non-nil, deduplicates functional execution across the
	// grid: each workload's cells of one functional identity run as a group
	// on one worker, the first of them to run captures its trace, and the
	// rest replay the capture through their own timing models. Results stay
	// byte-identical to an uncached sweep (harness.trace_cache.* counters
	// aside); the replay differential tests pin that. One cache may serve
	// several sweeps, and its counters add up across them.
	TraceCache *TraceCache
	// OnCell, when non-nil, receives each grid cell once as it finishes
	// (or is skipped): its span, with the sweep name left for the observer
	// to stamp (see ObserveCells), and its private metric registry (nil
	// unless the sweep ran with Metrics), which the cell no longer writes
	// and receivers must treat as read-only. Cells arrive in completion
	// order and may be delivered concurrently from multiple workers; the
	// callback must be safe for concurrent use. The trace, progress and
	// telemetry surfaces hang off this stream — it reports wall-clock facts
	// and cache warmth, which are explicitly NOT part of the determinism
	// contract.
	OnCell func(obs.CellSpan, *obs.Registry)
	// Now is the event-stream clock (nil = time.Now). Injected by tests so
	// span timestamps are deterministic; the simulation itself never reads
	// it.
	Now func() time.Time
}

// EffectiveWorkers resolves the worker-pool size actually used.
func (o ParallelOptions) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CellError is the failure of one grid cell, tagged with its coordinates so
// aggregated reports stay attributable.
type CellError struct {
	Workload string
	Config   string
	Err      error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s/%s: %v", e.Workload, e.Config, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// PanicError is a panic captured inside one sweep cell, converted into an
// ordinary error so a crashing cell becomes an annotated hole instead of
// taking the whole sweep process down. Stack is the panicking goroutine's
// stack trace at recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements the error interface; the message carries the full stack
// so the failure stays diagnosable after aggregation.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// runCell executes one cell of group g with panic containment: a panic
// anywhere under Run (workload builder, world assembly, simulation, timing
// model) comes back as a *PanicError instead of unwinding the worker
// goroutine.
func runCell(wl workload.Workload, cfg BinaryConfig, scale int64, lim CellLimits, tc *TraceCache, g *group) (res *RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	if tc == nil {
		return runStreamed(wl, cfg, scale, lim, nil)
	}
	return tc.run(wl, cfg, scale, lim, g)
}

// holeReason compresses a cell error into the one-line annotation renderers
// attach to the hole (the full error, stack included, stays in MatrixError).
func holeReason(err error) string {
	var bud *sim.BudgetExceededError
	if errors.As(err, &bud) {
		return fmt.Sprintf("watchdog: %s budget exceeded (%s)", bud.Resource, bud.Limit)
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return fmt.Sprintf("panic: %v", pe.Value)
	}
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return msg
}

// MatrixError aggregates every failed cell of a sweep. Cells appear in grid
// order (workload-major), not completion order, so the message is
// deterministic at any worker count.
type MatrixError struct {
	Cells []*CellError
	// Skipped counts cells never started because the sweep was cancelled
	// (FailFast or an external context cancellation).
	Skipped int
}

func (e *MatrixError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "harness: %d of the sweep's cells failed", len(e.Cells))
	if e.Skipped > 0 {
		fmt.Fprintf(&b, " (%d skipped after cancellation)", e.Skipped)
	}
	for _, c := range e.Cells {
		b.WriteString("\n  ")
		b.WriteString(c.Error())
	}
	return b.String()
}

// Unwrap exposes the per-cell errors to errors.Is/As.
func (e *MatrixError) Unwrap() []error {
	out := make([]error, len(e.Cells))
	for i, c := range e.Cells {
		out[i] = c
	}
	return out
}

// sweep is one RunMatrixParallel call: the grid, the Matrix its workers
// fill, and the runner the worker pool drives. Each of the Matrix's cells is
// written by the one goroutine running it and read by others only after
// every worker has finished.
type sweep struct {
	opt    ParallelOptions
	scale  int64
	wls    []workload.Workload
	cfgs   []BinaryConfig
	groups [][]int // config indices a worker runs together (configGroups)
	m      *Matrix
	ctx    context.Context
	cancel context.CancelFunc
	now    func() time.Time
}

// cell returns grid cell i's workload and config.
func (s *sweep) cell(i int) (workload.Workload, BinaryConfig) {
	return s.wls[i/len(s.cfgs)], s.cfgs[i%len(s.cfgs)]
}

// configGroups partitions the config indices into the groups one worker
// runs together. With a trace cache a group is the configs of one
// functional identity, in config order; cellTraceKey is taken without the
// workload, so one grouping serves every workload. Without one every
// config is a group of its own. Groups come in the order of their first
// config.
func configGroups(cfgs []BinaryConfig, scale int64, budget uint64, byIdentity bool) [][]int {
	keys := make([]traceKey, 0, len(cfgs))
	groups := make([][]int, 0, len(cfgs))
	for c, cfg := range cfgs {
		k := cellTraceKey("", cfg, scale, budget)
		if g := slices.Index(keys, k); g >= 0 && byIdentity {
			groups[g] = append(groups[g], c)
			continue
		}
		keys = append(keys, k)
		groups = append(groups, []int{c})
	}
	return groups
}

// runGroup runs unit u of the sweep, one workload's cells of one config
// group, in grid order on one worker, keeping the group's capture in g
// until its last cell is done.
func (s *sweep) runGroup(worker, u int, g *group) {
	base := u / len(s.groups) * len(s.cfgs)
	cfgs := s.groups[u%len(s.groups)]
	for n, c := range cfgs {
		g.more = n < len(cfgs)-1
		s.run(worker, base+c, g)
	}
	*g = group{}
}

// run executes grid cell i of group g on worker slot worker: the per-cell
// watchdog (the explicit cell timeout, tightened by whatever remains of the
// caller context's deadline), panic containment via runCell, the OnCell
// report, and fail-fast cancellation.
func (s *sweep) run(worker, i int, g *group) {
	if s.ctx.Err() != nil {
		s.skip(worker, i)
		return
	}
	lim := CellLimits{
		MaxInstructions: s.opt.CellInstrBudget,
		Timeout:         s.opt.CellTimeout,
		Metrics:         s.opt.Metrics,
		Engine:          s.opt.Engine,
	}
	if dl, ok := s.ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			s.skip(worker, i)
			return
		}
		if lim.Timeout == 0 || rem < lim.Timeout {
			lim.Timeout = rem
		}
	}
	wl, cfg := s.cell(i)
	start := s.now()
	r, err := runCell(wl, cfg, s.scale, lim, s.opt.TraceCache, g)
	c := cell{res: r, err: err}
	if err != nil {
		c.reason = holeReason(err)
	}
	s.m.cells[i] = c
	s.emit(worker, i, start, s.now())
	if err != nil && s.opt.FailFast {
		s.cancel()
	}
}

// skip records cell i as never started because the sweep was cancelled.
func (s *sweep) skip(worker, i int) {
	s.m.cells[i] = cell{reason: "skipped (sweep cancelled)"}
	at := s.now()
	s.emit(worker, i, at, at)
}

// emit reports cell i to opt.OnCell as its span, the cell's error
// flattened to a verdict and reason, and its registry.
func (s *sweep) emit(worker, i int, start, end time.Time) {
	if s.opt.OnCell == nil {
		return
	}
	c := s.m.cells[i]
	wl, cfg := s.cell(i)
	span := obs.CellSpan{
		Worker: worker, Index: i, Total: len(s.m.cells),
		Workload: wl.Name, Config: cfg.Name,
		Start: start, End: end,
		Verdict: "ok",
	}
	var reg *obs.Registry
	switch {
	case c.res != nil:
		span.Source = c.res.Source
		span.Instrs, span.Cycles = c.res.Stats.Instructions, c.res.Stats.Cycles
		reg = c.res.Obs
	case c.err == nil:
		span.Verdict, span.Reason = "skipped", "sweep cancelled"
	default:
		span.Verdict, span.Reason = "hole", c.reason
	}
	s.opt.OnCell(span, reg)
}

// assemble gathers the filled grid's failures in grid order, so the
// aggregated error is identical no matter which worker finished first, and
// with metrics on aggregates the cell registries.
func (s *sweep) assemble() (*Matrix, error) {
	merr := &MatrixError{}
	for i, c := range s.m.cells {
		switch {
		case c.err != nil:
			wl, cfg := s.cell(i)
			merr.Cells = append(merr.Cells, &CellError{Workload: wl.Name, Config: cfg.Name, Err: c.err})
		case c.res == nil:
			merr.Skipped++
		}
	}
	if s.opt.Metrics {
		// Merge errors are impossible by construction (every cell
		// registers identical histogram bounds) but surfaced rather than
		// swallowed.
		if cerr := s.m.aggregateObs(); cerr != nil {
			merr.Cells = append(merr.Cells, cerr)
		}
		if s.opt.TraceCache != nil {
			s.opt.TraceCache.recordObs(s.m.Obs)
		}
	}
	if len(merr.Cells) > 0 || merr.Skipped > 0 {
		return s.m, merr
	}
	return s.m, nil
}

// RunMatrixParallel sweeps the workloads × configs grid on a worker pool.
// It produces bit-identical matrices at any worker count (each cell is a
// deterministic, self-contained simulation and fills its own grid slot).
// Baseline ("plain") must be among the configs for overhead computation.
//
// It does not stop at the first failure: every cell runs and all failures
// come back as one *MatrixError, alongside the partial Matrix holding the
// cells that did complete. With opt.FailFast (or when ctx is cancelled) the
// cells not yet started are skipped and counted in MatrixError.Skipped.
//
// The sweep is crash-contained and watchdogged: a cell that panics is
// recovered into a *PanicError (stack trace attached) without disturbing
// its sibling workers, and a cell that exceeds opt.CellTimeout or
// opt.CellInstrBudget fails with a *sim.BudgetExceededError. Either way the
// cell becomes an annotated hole in the partial Matrix (Matrix.Hole) and
// one entry of the grid-ordered MatrixError.
func RunMatrixParallel(ctx context.Context, wls []workload.Workload, cfgs []BinaryConfig, scale int64, opt ParallelOptions) (*Matrix, error) {
	s := &sweep{opt: opt, scale: scale, wls: wls, cfgs: cfgs, m: newMatrix(wls, cfgs), now: opt.Now}
	if s.now == nil {
		s.now = time.Now
	}
	s.groups = configGroups(cfgs, scale, opt.CellInstrBudget, opt.TraceCache != nil)
	s.ctx, s.cancel = context.WithCancel(ctx)
	defer s.cancel()

	// The pool's unit of work is one workload's config group, so a
	// capture and its replays run on one worker, one after another. The
	// workers take the units in grid order.
	units := len(wls) * len(s.groups)
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := opt.EffectiveWorkers()
	if workers > units && units > 0 {
		workers = units
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var g group
			for {
				u := int(next.Add(1)) - 1
				if u >= units {
					return
				}
				s.runGroup(worker, u, &g)
			}
		}(w)
	}
	wg.Wait()
	return s.assemble()
}
