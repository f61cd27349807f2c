// Package world assembles complete simulation worlds: a program built under
// an instrumentation pass, the matching runtime (allocator + interceptors),
// the REST hardware state when the pass needs it, and the timing model
// (core + caches + DRAM + predictor). It is the composition root used by the
// public API, the experiment harness, the examples and the test suites.
package world

import (
	"fmt"
	"math/rand"
	"time"

	"rest/internal/alloc"
	"rest/internal/bpred"
	"rest/internal/cache"
	"rest/internal/core"
	"rest/internal/cpu"
	"rest/internal/mem"
	"rest/internal/obs"
	"rest/internal/prog"
	"rest/internal/rt"
	"rest/internal/shadow"
	"rest/internal/sim"
	"rest/internal/trace"
)

// Spec configures a world.
type Spec struct {
	Pass prog.PassConfig
	// Mode selects secure (imprecise, deployment) or debug (precise)
	// exception reporting; it also configures the pipeline's store-commit
	// policy. Ignored for non-REST passes.
	Mode core.Mode
	// Width is the REST token width (default 64B). It must equal
	// Pass.TokenWidth when both are set.
	Width core.Width
	// Seed drives token generation (deterministic by default).
	Seed int64
	// MaxInstructions caps functional execution (0 = sim default).
	MaxInstructions uint64
	// Deadline is the wall-clock watchdog for the run (zero = none); a run
	// still executing past it aborts with a *sim.BudgetExceededError.
	Deadline time.Time
	// Engine selects the functional simulator's execution engine
	// (sim.EngineAuto, the zero value, resolves to the decoded-block
	// engine; sim.EngineRef forces the single-step reference interpreter).
	// Purely a speed knob: both engines produce byte-identical traces,
	// outcomes and counters, pinned by the engine differential tests.
	Engine sim.Engine
	// InterceptLibc overrides the runtime's libc interception when non-nil
	// (Figure 3 component toggle).
	InterceptLibc *bool
	// CPU overrides the core configuration (nil = Table II defaults).
	CPU *cpu.Config
	// InOrder selects the simple in-order core instead of the out-of-order
	// model (the paper's Figure 3 was measured on an in-order core).
	InOrder bool
	// Hier overrides the cache hierarchy (nil = Table II defaults).
	Hier *cache.HierConfig
	// QuarantineCap overrides the allocator quarantine capacity in bytes
	// (ablation studies; nil = allocator default).
	QuarantineCap *uint64
	// RedzoneBytes overrides the allocator per-side redzone size
	// (ablation studies; nil = allocator default).
	RedzoneBytes *uint64
	// RandomizeHeap enables heap layout randomization with the given seed
	// (§V-C Predictability; REST arms the random slack).
	RandomizeHeap *int64
	// Obs, when non-nil, threads the observability plane through every
	// layer of this world: sim/cpu/alloc get live probes, and RunTimed /
	// RunFunctional flush the cache and allocator statistics into the
	// registry at end of run. Nil (the default) keeps every hook on its
	// zero-cost nil fast path.
	Obs *obs.Registry
	// FuncObs, when non-nil, splits the observability plane: the functional
	// layers (sim, alloc) publish here while the timing layers (cpu, cache)
	// keep publishing to Obs. The trace cache uses the split to capture a
	// cell's functional metrics once and merge them into each replaying
	// cell's registry — the metric names are disjoint, so Obs merged with
	// FuncObs is identical to an unsplit registry. Nil (the default) sends
	// everything to Obs.
	FuncObs *obs.Registry
}

// funcObs resolves the functional-plane registry: FuncObs when split, Obs
// otherwise.
func (s Spec) funcObs() *obs.Registry {
	if s.FuncObs != nil {
		return s.FuncObs
	}
	return s.Obs
}

// Outcome summarizes a run's architectural result.
type Outcome struct {
	Checksum  uint64
	Exception *core.Exception // REST hardware detection
	Violation *sim.Violation  // software (ASan/allocator) detection
	Err       error           // simulation error (bug in the program/world)
}

// Detected reports whether any memory-safety mechanism fired.
func (o Outcome) Detected() bool { return o.Exception != nil || o.Violation != nil }

// String renders the outcome for reports.
func (o Outcome) String() string {
	switch {
	case o.Err != nil:
		return fmt.Sprintf("error: %v", o.Err)
	case o.Exception != nil:
		return fmt.Sprintf("REST exception: %s", o.Exception.Kind)
	case o.Violation != nil:
		return fmt.Sprintf("detected: %s", o.Violation.What)
	default:
		return "completed"
	}
}

// World is one assembled simulation instance. Build one per run; the
// functional machine is single-use.
type World struct {
	Spec     Spec
	Program  *prog.Program
	Machine  *sim.Machine
	Runtime  *rt.Runtime
	Tracker  *core.TokenTracker
	Shadow   *shadow.Map
	Alloc    *alloc.Engine
	Hier     *cache.Hierarchy
	Pipeline *cpu.Pipeline
	InOrder  *cpu.InOrder
	Pred     *bpred.Predictor

	obsFlushed bool
}

// Build constructs a world for the given program builder function.
func Build(spec Spec, build func(b *prog.Builder)) (*World, error) {
	if spec.Width == 0 {
		spec.Width = core.Width64
	}
	if spec.Pass.TokenWidth == 0 {
		spec.Pass.TokenWidth = uint64(spec.Width)
	}
	if uint64(spec.Width) != spec.Pass.TokenWidth && spec.Pass.Flavour == rt.REST {
		return nil, fmt.Errorf("world: token width mismatch: spec %d vs pass %d",
			spec.Width, spec.Pass.TokenWidth)
	}

	b := prog.NewBuilder(spec.Pass)
	build(b)
	program, err := b.Build()
	if err != nil {
		return nil, err
	}

	m := mem.New()
	var tracker *core.TokenTracker
	var shadowMap *shadow.Map
	var engine *alloc.Engine

	switch spec.Pass.Flavour {
	case rt.REST:
		reg, err := core.NewTokenRegister(spec.Width, spec.Mode, rand.New(rand.NewSource(spec.Seed+1)))
		if err != nil {
			return nil, err
		}
		tracker = core.NewTokenTracker(reg, m)
		engine, err = alloc.NewREST(tracker)
		if err != nil {
			return nil, err
		}
	case rt.ASan:
		shadowMap = shadow.New(m)
		engine, err = alloc.NewASan(shadowMap)
		if err != nil {
			return nil, err
		}
	case rt.PerfectHW:
		engine, err = alloc.NewPerfectHW()
		if err != nil {
			return nil, err
		}
	default:
		engine, err = alloc.NewLibc()
		if err != nil {
			return nil, err
		}
	}

	if spec.QuarantineCap != nil {
		engine.SetQuarantineCap(*spec.QuarantineCap)
	}
	if spec.RedzoneBytes != nil {
		engine.SetRedzone(*spec.RedzoneBytes)
	}
	if spec.RandomizeHeap != nil {
		engine.RandomizeLayout(*spec.RandomizeHeap, 7)
	}
	runtime := rt.New(spec.Pass.Flavour, engine, shadowMap)
	if spec.InterceptLibc != nil {
		runtime.InterceptLibc = *spec.InterceptLibc
	}
	// Probe constructors are nil-safe: a nil registry yields nil probe
	// sets, and every hook site degrades to one nil check. The functional
	// layers publish to funcObs (== Obs unless the caller split the planes).
	engine.SetProbes(alloc.NewProbes(spec.funcObs()))

	mach, err := sim.New(sim.Config{
		Mem:             m,
		Tracker:         tracker,
		Runtime:         runtime,
		MaxInstructions: spec.MaxInstructions,
		Deadline:        spec.Deadline,
		Probes:          sim.NewProbes(spec.funcObs()),
		Engine:          spec.Engine,
	}, program.Instrs, program.Entry)
	if err != nil {
		return nil, err
	}

	var tokens cache.TokenSource
	if tracker != nil {
		tokens = tracker
	}
	// The timing half is built as a replay world's is.
	w, err := BuildReplay(spec, tokens)
	if err != nil {
		return nil, err
	}
	w.Program, w.Machine, w.Runtime = program, mach, runtime
	w.Tracker, w.Shadow, w.Alloc = tracker, shadowMap, engine
	return w, nil
}

// FlushObs publishes the world's end-of-run observability state into
// Spec.Obs: the machine's architectural counters, every cache level's
// statistics and the allocator totals. Idempotent and nil-safe; RunTimed
// and RunFunctional call it, so callers only need it for worlds they drive
// by hand.
func (w *World) FlushObs() {
	if (w.Spec.Obs == nil && w.Spec.FuncObs == nil) || w.obsFlushed {
		return
	}
	w.obsFlushed = true
	// Replay worlds have no functional half (Machine/Alloc are nil): their
	// functional metrics are merged in from the captured run instead.
	if w.Machine != nil {
		w.Machine.FlushProbes()
	}
	if w.Alloc != nil {
		w.Alloc.FlushProbes()
	}
	if w.Spec.Obs != nil {
		cache.RecordHierarchy(w.Spec.Obs, w.Hier)
	}
}

// outcome derives the Outcome from the machine's final state.
func (w *World) outcome() Outcome {
	return Outcome{
		Checksum:  w.Machine.Checksum(),
		Exception: w.Machine.Exception(),
		Violation: w.Machine.SWViolation(),
		Err:       w.Machine.Err(),
	}
}

// RunFunctional executes the program architecturally only (no timing) and
// returns the outcome.
func (w *World) RunFunctional() Outcome {
	w.Machine.Run()
	w.FlushObs()
	return w.outcome()
}

// RunTimed streams the program through the timing model (the functional
// machine is pulled lazily as the trace source) and returns timing stats
// plus the architectural outcome, carrying the core's mode-resolved
// precision (see resolve).
func (w *World) RunTimed() (*cpu.Stats, Outcome) {
	stats := w.drive(w.Machine)
	return stats, resolve(w.outcome(), stats)
}

// RunTimedCapture is RunTimed with the streamed trace teed into sink: a
// trace.Recorder, so that a later ReplayTimed on a world built by
// BuildReplay can reproduce this run's timing without the functional
// machine.
func (w *World) RunTimedCapture(sink trace.Sink) (*cpu.Stats, Outcome) {
	stats := w.drive(trace.Tee(w.Machine, sink))
	return stats, resolve(w.outcome(), stats)
}

// drive runs the world's core over r and flushes the world's metrics.
func (w *World) drive(r trace.Reader) *cpu.Stats {
	var stats *cpu.Stats
	if w.InOrder != nil {
		stats = w.InOrder.Run(r)
	} else {
		stats = w.Pipeline.Run(r)
	}
	w.FlushObs()
	return stats
}

// resolve returns out with the precision and detection lag of the core's
// exception, which the mode decides and which supersede the architectural
// exception's. It writes a copy: out's exception may be a captured
// outcome's, shared by every replay of it.
func resolve(out Outcome, stats *cpu.Stats) Outcome {
	if out.Exception != nil && stats.Exception != nil {
		exc := *out.Exception
		exc.Precise = stats.Exception.Precise
		exc.DetectLagCycles = stats.Exception.DetectLagCycles
		out.Exception = &exc
	}
	return out
}

// BuildReplay assembles a timing-only world: the cache hierarchy, branch
// predictor and core of spec, with no program, functional machine, runtime
// or allocator behind them. tokens stands in for the token tracker as the
// L1-D fill-time detector's TokenSource (a trace.Replayer over a captured
// REST trace; nil for non-REST replays). Only the timing fields of spec are
// consulted: Pass/Seed/MaxInstructions/Deadline shape the functional run
// that produced the trace, not its replay. Build assembles every world's
// timing half here.
func BuildReplay(spec Spec, tokens cache.TokenSource) (*World, error) {
	hcfg := cache.DefaultHierConfig()
	if spec.Hier != nil {
		hcfg = *spec.Hier
	}
	hier, err := cache.NewHierarchy(hcfg, tokens)
	if err != nil {
		return nil, err
	}
	ccfg := cpu.DefaultConfig()
	if spec.CPU != nil {
		ccfg = *spec.CPU
	}
	ccfg.Mode = spec.Mode
	w := &World{
		Spec: spec,
		Hier: hier,
		Pred: bpred.New(bpred.Config{}),
	}
	if spec.InOrder {
		w.InOrder = cpu.NewInOrder(ccfg, hier, w.Pred)
		w.InOrder.SetProbes(cpu.NewProbes(spec.Obs))
	} else {
		w.Pipeline = cpu.New(ccfg, hier, w.Pred)
		w.Pipeline.SetProbes(cpu.NewProbes(spec.Obs))
	}
	return w, nil
}

// ReplayTimed drives a BuildReplay world's timing model from a recorded
// trace and returns the timing stats plus the captured run's architectural
// outcome with this replay's mode-resolved precision fields. The replayed
// stats are bit-identical to the streamed run's when the timing
// configuration matches (and, for complete clean traces, under any timing
// configuration — the replay differential tests pin both).
func (w *World) ReplayTimed(r trace.Reader, captured Outcome) (*cpu.Stats, Outcome) {
	stats := w.drive(r)
	// The replay is over; drop the hierarchy's reference to the token source
	// (the Replayer over the captured trace) so a retained replay result does
	// not pin the multi-megabyte trace for the rest of a sweep.
	w.Hier.ReleaseTokenSource()
	return stats, resolve(captured, stats)
}
