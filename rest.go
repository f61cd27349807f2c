// Package rest is a full-system reproduction of "Practical Memory Safety
// with REST" (Sinha & Sethumadhavan, ISCA 2018) in pure Go.
//
// REST (Random Embedded Secret Tokens) is a hardware primitive for
// content-based memory checks: a very large random value — the token — is
// planted into memory locations that must never be touched (redzones around
// buffers, freed heap chunks). The L1 data cache detects token-valued lines
// with one metadata bit per line and a comparator on the fill path; any
// regular access to a token raises a privileged REST exception. Two
// instructions, ARM and DISARM, plant and remove tokens.
//
// This package is the public facade over the full stack built for the
// reproduction:
//
//   - a RISC-style ISA with ARM/DISARM, a functional simulator, and runtime
//     services (allocators, libc interceptors) whose memory traffic is part
//     of the simulated instruction stream;
//   - the REST hardware: token register, per-chunk L1-D token bits,
//     fill-time detector, LSQ forwarding checks, secure/debug exception
//     modes (internal/core, internal/cache, internal/cpu);
//   - the software framework: ASan-equivalent shadow memory, compiler
//     passes (plain / ASan / REST / PerfectHW), and the three allocators;
//   - an out-of-order timing model configured per the paper's Table II;
//   - 12 SPEC-named synthetic workloads, an attack suite, and the harness
//     that regenerates every table and figure of the evaluation.
//
// # Quick start
//
//	out, err := rest.RunProgram(rest.RESTFull(64), rest.Secure,
//	    func(b *rest.ProgramBuilder) {
//	        f := b.Func("main")
//	        buf := f.Buffer(64, true) // protected: bookended with tokens
//	        p := f.Reg()
//	        f.BufAddr(p, buf, 0)
//	        f.Store(p, 64, p, 8) // one byte past the end
//	    })
//	// out.Exception reports the REST violation.
//
// See examples/ for runnable programs and cmd/restbench for the experiment
// harness.
package rest

import (
	"context"

	"rest/internal/asm"
	"rest/internal/attack"
	"rest/internal/core"
	"rest/internal/cpu"
	"rest/internal/fault"
	"rest/internal/harness"
	"rest/internal/isa"
	"rest/internal/prog"
	"rest/internal/workload"
	"rest/internal/world"
)

// Re-exported core types. TokenWidth selects the token size in bytes
// (§III-B "Modifying Token Width"); Mode selects exception precision.
type (
	// TokenWidth is the token size in bytes (16, 32 or 64).
	TokenWidth = core.Width
	// Mode is the exception reporting mode.
	Mode = core.Mode
	// Exception is the privileged REST memory-safety exception.
	Exception = core.Exception
	// ViolationKind classifies REST exceptions.
	ViolationKind = core.ViolationKind
	// Pass selects the instrumentation inserted at compile time.
	Pass = prog.PassConfig
	// ProgramBuilder is the DSL used to write simulated programs.
	ProgramBuilder = prog.Builder
	// Reg is a symbolic register handle in the program DSL.
	Reg = prog.Reg
	// Buffer is a stack array declared in the program DSL.
	Buffer = prog.Buffer
	// Outcome is the architectural result of a run.
	Outcome = world.Outcome
	// TimingStats is the cycle-level result of a timed run.
	TimingStats = cpu.Stats
	// Workload is one synthetic benchmark.
	Workload = workload.Workload
	// Attack is one adversarial program from the §V suite.
	Attack = attack.Attack
	// System is a fully assembled simulation world.
	System = world.World
	// Instr is one decoded machine instruction (returned by Assemble).
	Instr = isa.Instr
)

// Token widths.
const (
	Width16 = core.Width16
	Width32 = core.Width32
	Width64 = core.Width64
)

// Exception modes: Secure is the low-overhead deployment mode (imprecise
// exceptions); Debug guarantees precise exceptions at higher cost.
const (
	Secure = core.Secure
	Debug  = core.Debug
)

// Pass constructors.
var (
	// Plain builds without any protection (the baseline).
	Plain = prog.Plain
	// ASanFull builds with AddressSanitizer-equivalent instrumentation.
	ASanFull = prog.ASanFull
	// RESTFull builds with stack + heap REST protection at the given token
	// width (requires "recompilation", i.e. this pass).
	RESTFull = prog.RESTFull
	// RESTHeap builds with heap-only REST protection: no instrumentation at
	// all — the paper's legacy-binary deployment.
	RESTHeap = prog.RESTHeap
	// PerfectHWFull and PerfectHWHeap cost the REST software on hypothetical
	// zero-cost hardware (the paper's limit study).
	PerfectHWFull = prog.PerfectHWFull
	// PerfectHWHeap is the heap-only perfect-hardware build.
	PerfectHWHeap = prog.PerfectHWHeap
)

// NewSystem assembles a complete simulation world (program, runtime, REST
// hardware, caches, core) for the given pass, mode and width.
func NewSystem(pass Pass, mode Mode, build func(b *ProgramBuilder)) (*System, error) {
	return world.Build(world.Spec{
		Pass:  pass,
		Mode:  mode,
		Width: core.Width(pass.TokenWidth),
	}, build)
}

// RunProgram builds and functionally executes a program, returning the
// architectural outcome (checksum, REST exception or software violation).
func RunProgram(pass Pass, mode Mode, build func(b *ProgramBuilder)) (Outcome, error) {
	w, err := NewSystem(pass, mode, build)
	if err != nil {
		return Outcome{}, err
	}
	return w.RunFunctional(), nil
}

// RunTimed builds and executes a program through the out-of-order timing
// model (Table II configuration), returning cycle-level statistics and the
// architectural outcome.
func RunTimed(pass Pass, mode Mode, build func(b *ProgramBuilder)) (*TimingStats, Outcome, error) {
	w, err := NewSystem(pass, mode, build)
	if err != nil {
		return nil, Outcome{}, err
	}
	st, out := w.RunTimed()
	return st, out, nil
}

// Workloads returns the 12 SPEC-named synthetic benchmarks of the
// evaluation.
func Workloads() []Workload { return workload.All() }

// WorkloadByName looks up one benchmark.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// Attacks returns the §V attack/violation suite.
func Attacks() []Attack { return attack.All() }

// Experiment entry points (see cmd/restbench for the CLI). Each takes a
// context so callers can bound whole figures with a deadline; a sweep cut
// short degrades into a partial matrix with annotated holes plus a
// *harness.MatrixError describing the missing cells.

// RunFigure7 sweeps all workloads over the eight Figure 7 configurations at
// the given scale and returns the overhead matrix.
func RunFigure7(ctx context.Context, scale int64) (*harness.Matrix, error) {
	return harness.RunMatrixParallel(ctx, workload.All(), harness.Fig7Configs(), scale, harness.ParallelOptions{})
}

// RunFigure8 sweeps the token-width configurations of Figure 8.
func RunFigure8(ctx context.Context, scale int64) (*harness.Matrix, error) {
	cfgs := append(harness.Fig8Configs(), harness.BinaryConfig{Name: "plain", Pass: prog.Plain()})
	return harness.RunMatrixParallel(ctx, workload.All(), cfgs, scale, harness.ParallelOptions{})
}

// RunFigure3 regenerates the ASan overhead component breakdown.
func RunFigure3(ctx context.Context, scale int64) (*harness.Fig3Result, error) {
	return harness.RunFig3Parallel(ctx, workload.All(), scale, harness.ParallelOptions{})
}

// RunFaultCampaign executes the deterministic fault-injection campaign
// (§V robustness analysis): every scenario perturbs a running world —
// bit flips, token loss on eviction, partial token overwrites, forced
// collisions, quarantine exhaustion — and is checked against its expected
// verdict (detected / silent miss / benign).
func RunFaultCampaign(seed int64) (*fault.Campaign, error) {
	return fault.RunCampaign(fault.Options{Seed: seed})
}

// TableI runs the REST semantics conformance matrix and reports whether
// every observed behaviour matches the paper's Table I.
func TableI() (string, bool) { return harness.RunTableI() }

// TableII renders the simulated hardware configuration.
func TableII() string { return harness.RenderTableII() }

// TableIII renders the qualitative comparison of hardware schemes.
func TableIII() string { return harness.RenderTableIII() }

// Assemble parses textual REST assembly (see internal/asm for the syntax)
// into an instruction sequence and its entry index.
func Assemble(src string) ([]isa.Instr, int, error) { return asm.Parse(src) }

// Disassemble renders an instruction sequence back to text.
func Disassemble(prog []isa.Instr) string { return asm.Format(prog) }
