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
// is byte-identical to a sequential RunMatrix at any worker count — cells
// are deterministic functions of (workload, config, scale), and results are
// assembled in grid order regardless of completion order. The determinism
// differential tests pin this guarantee.

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
	// OnCell, when non-nil, receives one CellEvent per grid cell as it
	// finishes (or is skipped). Events arrive in completion order and may be
	// delivered concurrently from multiple workers; the callback must be
	// safe for concurrent use. The trace/progress/telemetry surfaces hang
	// off this stream — it reports wall-clock facts, which are explicitly
	// NOT part of the determinism contract.
	OnCell func(CellEvent)
	// Now is the event-stream clock (nil = time.Now). Injected by tests so
	// CellEvent timestamps are deterministic; the simulation itself never
	// reads it.
	Now func() time.Time
}

// CellEvent is one cell's lifecycle report for the observability stream:
// which worker ran which grid cell, over which wall-clock window, and what
// came of it.
type CellEvent struct {
	// Worker is the worker-pool slot (0-based) that processed the cell.
	Worker int
	// Index is the cell's grid-order position; Total is the grid size.
	Index, Total int
	Workload     string
	Config       string
	// Start and End bound the cell's execution wall-clock window. For a
	// skipped cell they are the moment the skip was decided.
	Start, End time.Time
	// Err is the cell's failure (nil on success); Skipped marks a cell never
	// started because the sweep was cancelled.
	Err     error
	Skipped bool
	// Instrs and Cycles summarize a successful cell (zero otherwise).
	Instrs, Cycles uint64
	// Source tags where a successful cell's result came from: "stream"
	// (live execution), "capture" (live execution recording a shared
	// trace), "replay" (in-memory trace cache) or "result-store" (memoized
	// cell outcome). Empty for
	// failed or skipped cells. Like the timestamps, it reflects wall-clock
	// scheduling and cache warmth, not the determinism contract.
	Source string
	// Obs is the cell's private metric registry (nil unless the sweep ran
	// with Metrics). It is delivered after the cell has finished writing
	// it; receivers must treat it as read-only.
	Obs *obs.Registry
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

// cellOutcome is one worker's report for one grid cell.
type cellOutcome struct {
	res     *RunResult
	err     error
	skipped bool
}

// sweep is one RunMatrixParallel call: the grid, laid out workload-major
// (the order of every report and outcome slot), one outcome slot per cell,
// and the runner the worker pool drives. Each slot is written by the one
// goroutine running its cell and read only after every worker has finished.
type sweep struct {
	opt      ParallelOptions
	scale    int64
	wls      []workload.Workload
	cfgs     []BinaryConfig
	groups   [][]int // config indices a worker runs together (configGroups)
	outcomes []cellOutcome
	ctx      context.Context
	cancel   context.CancelFunc
	now      func() time.Time
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
// caller context's deadline), panic containment via runCell, the CellEvent,
// and fail-fast cancellation.
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
	s.outcomes[i] = cellOutcome{res: r, err: err}
	s.emit(worker, i, start, s.now())
	if err != nil && s.opt.FailFast {
		s.cancel()
	}
}

// skip records cell i as never started because the sweep was cancelled.
func (s *sweep) skip(worker, i int) {
	s.outcomes[i].skipped = true
	at := s.now()
	s.emit(worker, i, at, at)
}

// emit reports cell i's outcome to opt.OnCell.
func (s *sweep) emit(worker, i int, start, end time.Time) {
	if s.opt.OnCell == nil {
		return
	}
	o := s.outcomes[i]
	wl, cfg := s.cell(i)
	ev := CellEvent{
		Worker: worker, Index: i, Total: len(s.outcomes),
		Workload: wl.Name, Config: cfg.Name,
		Start: start, End: end,
		Err: o.err, Skipped: o.skipped,
	}
	if o.res != nil {
		ev.Cycles = o.res.Cycles
		ev.Source = o.res.Source
		ev.Obs = o.res.Obs
		if o.res.Stats != nil {
			ev.Instrs = o.res.Stats.Instructions
		}
	}
	s.opt.OnCell(ev)
}

// assemble builds the Matrix in grid order, so the Matrix (and any
// aggregated error) is identical no matter which worker finished first.
func (s *sweep) assemble() (*Matrix, error) {
	m := &Matrix{
		Cycles:  make(map[string]map[string]uint64),
		Results: make(map[string]map[string]*RunResult),
	}
	for _, c := range s.cfgs {
		m.Configs = append(m.Configs, c.Name)
	}
	merr := &MatrixError{}
	for i, o := range s.outcomes {
		wl, cfg := s.cell(i)
		if _, ok := m.Cycles[wl.Name]; !ok {
			m.Workloads = append(m.Workloads, wl.Name)
			m.Cycles[wl.Name] = make(map[string]uint64)
			m.Results[wl.Name] = make(map[string]*RunResult)
		}
		switch {
		case o.skipped:
			merr.Skipped++
			m.AddHole(wl.Name, cfg.Name, "skipped (sweep cancelled)")
		case o.err != nil:
			merr.Cells = append(merr.Cells, &CellError{
				Workload: wl.Name, Config: cfg.Name, Err: o.err,
			})
			m.AddHole(wl.Name, cfg.Name, holeReason(o.err))
		default:
			m.Cycles[wl.Name][cfg.Name] = o.res.Cycles
			m.Results[wl.Name][cfg.Name] = o.res
		}
	}
	if s.opt.Metrics {
		// Grid-order merge of the per-cell registries; merge errors are
		// impossible by construction (every cell registers identical
		// histogram bounds) but surfaced rather than swallowed.
		if err := m.aggregateObs(); err != nil {
			merr.Cells = append(merr.Cells, &CellError{Err: err})
		}
		if s.opt.TraceCache != nil {
			s.opt.TraceCache.recordObs(m.Obs)
		}
	}
	if len(merr.Cells) > 0 || merr.Skipped > 0 {
		return m, merr
	}
	return m, nil
}

// RunMatrixParallel sweeps the workloads × configs grid on a worker pool.
// It is the parallel equivalent of RunMatrix and produces bit-identical
// cycle matrices at any worker count (each cell is a deterministic,
// self-contained simulation; collection order is fixed to grid order).
//
// Unlike RunMatrix, it does not stop at the first failure: every cell runs
// and all failures come back as one *MatrixError, alongside the partial
// Matrix holding the cells that did complete. With opt.FailFast (or when
// ctx is cancelled) the cells not yet started are skipped and counted in
// MatrixError.Skipped.
//
// The sweep is crash-contained and watchdogged: a cell that panics is
// recovered into a *PanicError (stack trace attached) without disturbing
// its sibling workers, and a cell that exceeds opt.CellTimeout or
// opt.CellInstrBudget fails with a *sim.BudgetExceededError. Either way the
// cell becomes an annotated hole in the partial Matrix (Matrix.Holes) and
// one entry of the grid-ordered MatrixError.
func RunMatrixParallel(ctx context.Context, wls []workload.Workload, cfgs []BinaryConfig, scale int64, opt ParallelOptions) (*Matrix, error) {
	s := &sweep{opt: opt, scale: scale, wls: wls, cfgs: cfgs, now: opt.Now}
	if s.now == nil {
		s.now = time.Now
	}
	s.outcomes = make([]cellOutcome, len(wls)*len(cfgs))
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
