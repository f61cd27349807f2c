// Package harness runs the paper's experiment matrix and regenerates every
// table and figure of the evaluation (§VI): Figure 3 (ASan overhead
// breakdown), Figure 7 (REST vs ASan overheads in all modes and scopes),
// Figure 8 (token-width sweep), Table I (semantics conformance), Table II
// (configuration) and Table III (qualitative comparison), plus the §VI-B
// microarchitectural statistics.
package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"rest/internal/cache"
	"rest/internal/core"
	"rest/internal/cpu"
	"rest/internal/obs"
	"rest/internal/prog"
	"rest/internal/sim"
	"rest/internal/workload"
	"rest/internal/world"
)

// BinaryConfig names one bar of Figure 7/8: a pass + mode combination, plus
// optional timing-model overrides for sensitivity sweeps. The pass, mode and
// libc fields define the cell's functional identity; CPU, Hier and InOrder
// are timing-only knobs — cells that differ only in those replay one shared
// captured trace when a TraceCache is active.
type BinaryConfig struct {
	Name string
	Pass prog.PassConfig
	Mode core.Mode
	// InterceptLibc: nil = flavour default; Figure 3 toggles it.
	InterceptLibc *bool
	// InOrder selects the in-order core (Figure 3 was measured on one,
	// paper footnote 1).
	InOrder bool
	// CPU overrides the out-of-order core configuration (nil = Table II
	// defaults).
	CPU *cpu.Config
	// Hier overrides the cache hierarchy (nil = Table II defaults).
	Hier *cache.HierConfig
}

// Fig7Configs returns the eight per-benchmark bars of Figure 7 (plain is
// the normalization baseline).
func Fig7Configs() []BinaryConfig {
	return []BinaryConfig{
		{Name: "plain", Pass: prog.Plain()},
		{Name: "asan", Pass: prog.ASanFull()},
		{Name: "debug-full", Pass: prog.RESTFull(64), Mode: core.Debug},
		{Name: "secure-full", Pass: prog.RESTFull(64), Mode: core.Secure},
		{Name: "perfecthw-full", Pass: prog.PerfectHWFull()},
		{Name: "debug-heap", Pass: prog.RESTHeap(64), Mode: core.Debug},
		{Name: "secure-heap", Pass: prog.RESTHeap(64), Mode: core.Secure},
		{Name: "perfecthw-heap", Pass: prog.PerfectHWHeap()},
	}
}

// Fig8Configs returns the six token-width bars of Figure 8 (secure mode).
func Fig8Configs() []BinaryConfig {
	var out []BinaryConfig
	for _, w := range []uint64{16, 32, 64} {
		out = append(out,
			BinaryConfig{Name: fmt.Sprintf("%d-full", w), Pass: prog.RESTFull(w)},
			BinaryConfig{Name: fmt.Sprintf("%d-heap", w), Pass: prog.RESTHeap(w)},
		)
	}
	return out
}

// RunResult is one cell of the experiment matrix.
type RunResult struct {
	Workload string
	Config   string
	Cycles   uint64
	Stats    *cpu.Stats
	Outcome  world.Outcome
	// World is the cell's simulation world, set only when the cell ran with
	// CellLimits.NeedWorld. Every other cell drops it on return, so a
	// finished sweep holds stats, not worlds.
	World *world.World
	// Obs is the cell's private metric registry (nil unless the cell ran
	// with CellLimits.Metrics). The sweep merges cell registries in grid
	// order into Matrix.Obs.
	Obs *obs.Registry
	// Source tags which execution path produced the result: "stream",
	// "capture", "replay" or "result-store" (see
	// CellEvent.Source). Observability metadata only — every path returns
	// identical Stats/Outcome by the differential tests' contract.
	Source string
}

// CellLimits bounds one cell's execution: the watchdog budgets every sweep
// cell runs under. The zero value imposes nothing beyond the simulator's
// own runaway cap.
type CellLimits struct {
	// MaxInstructions caps the cell's simulated user instructions
	// (0 = sim default).
	MaxInstructions uint64
	// Timeout bounds the cell's wall clock (0 = none). A cell that exceeds
	// it fails with a *sim.BudgetExceededError.
	Timeout time.Duration
	// Metrics gives the cell a fresh obs.Registry, threaded through every
	// layer of its world; the result carries it in RunResult.Obs. Off by
	// default: a nil registry keeps every probe on its nil fast path.
	Metrics bool
	// NeedWorld declares that the caller reads RunResult.World after the
	// cell completes (the micro-stats tables do, for hierarchy counters);
	// only such a cell returns its world. It can never be served from the
	// persistent result store — a file carries stats, not a live world — so
	// it always runs.
	NeedWorld bool
	// Engine selects the functional simulator's execution engine for the
	// cell (sim.EngineAuto = the decoded-block default, sim.EngineRef = the
	// single-step reference). Deliberately NOT part of any cache identity:
	// the engines produce byte-identical results, so a capture made under
	// one engine serves cells running under the other.
	Engine sim.Engine
}

// Run executes one workload under one configuration at the given scale.
func Run(wl workload.Workload, cfg BinaryConfig, scale int64) (*RunResult, error) {
	return RunLimited(wl, cfg, scale, CellLimits{})
}

// RunLimited is Run under explicit watchdog budgets.
func RunLimited(wl workload.Workload, cfg BinaryConfig, scale int64, lim CellLimits) (*RunResult, error) {
	return RunCached(wl, cfg, scale, lim, nil)
}

// RunCached is RunLimited through an optional trace cache: with a non-nil tc
// the cell is served from tc's result store when the store holds it, and
// otherwise streams and feeds the store; with nil it streams the functional
// simulator through the timing model the ordinary way. Capture and replay
// belong to a sweep, which runs the cells sharing a trace together (see
// TraceCache); every path returns identical results, which the replay
// differential tests pin.
func RunCached(wl workload.Workload, cfg BinaryConfig, scale int64, lim CellLimits, tc *TraceCache) (*RunResult, error) {
	if tc == nil {
		return runStreamed(wl, cfg, scale, lim, nil)
	}
	return tc.run(wl, cfg, scale, lim, nil)
}

// runStreamed executes one cell against the live functional simulator. A
// non-nil c additionally records the dynamic trace into c.rec and, with
// metrics on, keeps the functional plane's metrics in c.funcObs, for the
// sibling cells that replay the capture.
func runStreamed(wl workload.Workload, cfg BinaryConfig, scale int64, lim CellLimits, c *capture) (*RunResult, error) {
	var deadline time.Time
	if lim.Timeout > 0 {
		deadline = time.Now().Add(lim.Timeout)
	}
	var reg, funcObs *obs.Registry
	if lim.Metrics {
		reg = obs.NewRegistry()
		if c != nil {
			// Split the planes so the functional half can be shared with
			// replaying siblings; reg gets it merged back below, keeping
			// this cell's registry identical to an unsplit one.
			funcObs = obs.NewRegistry()
			c.funcObs = funcObs
		}
	}
	w, err := world.Build(world.Spec{
		Pass:            cfg.Pass,
		Mode:            cfg.Mode,
		Width:           core.Width(cfg.Pass.TokenWidth),
		InterceptLibc:   cfg.InterceptLibc,
		InOrder:         cfg.InOrder,
		CPU:             cfg.CPU,
		Hier:            cfg.Hier,
		MaxInstructions: lim.MaxInstructions,
		Deadline:        deadline,
		Engine:          lim.Engine,
		Obs:             reg,
		FuncObs:         funcObs,
	}, wl.Build(scale))
	if err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", wl.Name, cfg.Name, err)
	}
	var stats *cpu.Stats
	var out world.Outcome
	if c == nil {
		stats, out = w.RunTimed()
	} else {
		stats, out = w.RunTimedCapture(c.rec)
	}
	if funcObs != nil {
		if merr := reg.Merge(funcObs); merr != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", wl.Name, cfg.Name, merr)
		}
	}
	if out.Err != nil {
		// %w, not %v: the sweep engine classifies watchdog kills by
		// unwrapping to *sim.BudgetExceededError.
		return nil, fmt.Errorf("harness: %s/%s: %w", wl.Name, cfg.Name, out.Err)
	}
	if out.Detected() {
		return nil, fmt.Errorf("harness: %s/%s: spurious detection: %s", wl.Name, cfg.Name, out)
	}
	source := "stream"
	if c != nil {
		source = "capture"
	}
	res := &RunResult{
		Workload: wl.Name, Config: cfg.Name,
		Cycles: stats.Cycles, Stats: stats, Outcome: out,
		Obs: reg, Source: source,
	}
	if lim.NeedWorld {
		res.World = w
	}
	return res, nil
}

// runReplay executes one cell by replaying a sibling's captured trace
// through this cell's own timing model. The functional layers never run:
// the outcome comes from the capture, the functional metrics are merged
// from the capture's registry, and the token shadow inside the Replayer
// stands in for the tracker as the fill-time detector's TokenSource.
func runReplay(wl workload.Workload, cfg BinaryConfig, lim CellLimits, c *capture) (*RunResult, error) {
	var reg *obs.Registry
	if lim.Metrics {
		reg = obs.NewRegistry()
	}
	rp := c.rec.Replayer()
	var tokens cache.TokenSource
	if c.rec.TokenWidth() != 0 {
		tokens = rp
	}
	w, err := world.BuildReplay(world.Spec{
		Pass:          cfg.Pass,
		Mode:          cfg.Mode,
		Width:         core.Width(cfg.Pass.TokenWidth),
		InterceptLibc: cfg.InterceptLibc,
		InOrder:       cfg.InOrder,
		CPU:           cfg.CPU,
		Hier:          cfg.Hier,
		Obs:           reg,
	}, tokens)
	if err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", wl.Name, cfg.Name, err)
	}
	stats, out := w.ReplayTimed(rp, c.outcome)
	if reg != nil && c.funcObs != nil {
		if merr := reg.Merge(c.funcObs); merr != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", wl.Name, cfg.Name, merr)
		}
	}
	// Parity with runStreamed's validation (a cached outcome is clean by
	// construction, so these are unreachable; kept so the two paths can
	// never diverge in what they accept).
	if out.Err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", wl.Name, cfg.Name, out.Err)
	}
	if out.Detected() {
		return nil, fmt.Errorf("harness: %s/%s: spurious detection: %s", wl.Name, cfg.Name, out)
	}
	res := &RunResult{
		Workload: wl.Name, Config: cfg.Name,
		Cycles: stats.Cycles, Stats: stats, Outcome: out,
		Obs: reg, Source: "replay",
	}
	if lim.NeedWorld {
		res.World = w
	}
	return res, nil
}

// Matrix holds a full sweep: cycles[workload][config].
type Matrix struct {
	Workloads []string
	Configs   []string
	Cycles    map[string]map[string]uint64
	Results   map[string]map[string]*RunResult
	// Holes annotates cells with no result — failed, timed out or skipped —
	// as Holes[workload][config] = reason. A sweep that degrades gracefully
	// returns the partial matrix with its holes instead of aborting; every
	// renderer marks them explicitly so a gap can never pass for a zero.
	Holes map[string]map[string]string
	// Obs is the sweep-level metric registry: every cell's private registry
	// merged in grid order, plus harness.* sweep counters. Nil unless the
	// sweep ran with metrics enabled. Because cell registries are merged in
	// grid order (never completion order) and every merge operation is
	// commutative, the aggregate is byte-identical at any worker count.
	Obs *obs.Registry
}

// AddHole records why a cell has no result.
func (m *Matrix) AddHole(wl, config, reason string) {
	if m.Holes == nil {
		m.Holes = make(map[string]map[string]string)
	}
	if m.Holes[wl] == nil {
		m.Holes[wl] = make(map[string]string)
	}
	m.Holes[wl][config] = reason
}

// Hole reports the reason a cell has no result, if it is annotated.
func (m *Matrix) Hole(wl, config string) (string, bool) {
	r, ok := m.Holes[wl][config]
	return r, ok
}

// HoleCount reports how many cells of the sweep are annotated holes.
func (m *Matrix) HoleCount() int {
	n := 0
	for _, row := range m.Holes {
		n += len(row)
	}
	return n
}

// aggregateObs folds every cell's private registry into Matrix.Obs in grid
// order (workload-major, then config), then adds the sweep-level harness.*
// counters derived from the hole annotations. Grid-order merging plus
// commutative merge operations make the aggregate independent of cell
// completion order, so the sweep's metrics honour the same determinism
// contract as its tables: byte-identical at any -j.
func (m *Matrix) aggregateObs() error {
	agg := obs.NewRegistry()
	ok := agg.Counter("harness.cells_ok")
	hole := agg.Counter("harness.cells_hole")
	skipped := agg.Counter("harness.cells_skipped")
	watchdog := agg.Counter("harness.watchdog_trips")
	for _, wl := range m.Workloads {
		for _, c := range m.Configs {
			if r := m.Results[wl][c]; r != nil && r.Obs != nil {
				if err := agg.Merge(r.Obs); err != nil {
					return fmt.Errorf("harness: %s/%s: %w", wl, c, err)
				}
				ok.Inc()
				continue
			}
			if reason, isHole := m.Hole(wl, c); isHole {
				hole.Inc()
				if strings.HasPrefix(reason, "skipped") {
					skipped.Inc()
				}
				if strings.HasPrefix(reason, "watchdog") {
					watchdog.Inc()
				}
			}
		}
	}
	m.Obs = agg
	return nil
}

// RunMatrixObserved is RunMatrix with per-cell metric registries enabled and
// aggregated: the strictly sequential reference implementation the metrics
// determinism tests compare the parallel engine against.
func RunMatrixObserved(wls []workload.Workload, cfgs []BinaryConfig, scale int64) (*Matrix, error) {
	m := &Matrix{
		Cycles:  make(map[string]map[string]uint64),
		Results: make(map[string]map[string]*RunResult),
	}
	for _, c := range cfgs {
		m.Configs = append(m.Configs, c.Name)
	}
	for _, wl := range wls {
		m.Workloads = append(m.Workloads, wl.Name)
		m.Cycles[wl.Name] = make(map[string]uint64)
		m.Results[wl.Name] = make(map[string]*RunResult)
		for _, cfg := range cfgs {
			r, err := RunLimited(wl, cfg, scale, CellLimits{Metrics: true})
			if err != nil {
				return nil, err
			}
			m.Cycles[wl.Name][cfg.Name] = r.Cycles
			m.Results[wl.Name][cfg.Name] = r
		}
	}
	if err := m.aggregateObs(); err != nil {
		return nil, err
	}
	return m, nil
}

// complete reports whether workload wl has a result for config (and for the
// plain baseline, which every derived number needs).
func (m *Matrix) complete(wl, config string) bool {
	_, okCfg := m.Cycles[wl][config]
	_, okBase := m.Cycles[wl]["plain"]
	return okCfg && okBase
}

// RunMatrix sweeps the workloads × configs grid strictly sequentially,
// stopping at the first failing cell. It is the reference implementation the
// determinism differential tests compare RunMatrixParallel against; the
// report paths use the parallel engine. Baseline ("plain") must be among the
// configs for overhead computation.
func RunMatrix(wls []workload.Workload, cfgs []BinaryConfig, scale int64) (*Matrix, error) {
	m := &Matrix{
		Cycles:  make(map[string]map[string]uint64),
		Results: make(map[string]map[string]*RunResult),
	}
	for _, c := range cfgs {
		m.Configs = append(m.Configs, c.Name)
	}
	for _, wl := range wls {
		m.Workloads = append(m.Workloads, wl.Name)
		m.Cycles[wl.Name] = make(map[string]uint64)
		m.Results[wl.Name] = make(map[string]*RunResult)
		for _, cfg := range cfgs {
			r, err := Run(wl, cfg, scale)
			if err != nil {
				return nil, err
			}
			m.Cycles[wl.Name][cfg.Name] = r.Cycles
			m.Results[wl.Name][cfg.Name] = r
		}
	}
	return m, nil
}

// Overhead returns the percent slowdown of config vs the plain baseline for
// one workload.
func (m *Matrix) Overhead(wl, config string) float64 {
	base := m.Cycles[wl]["plain"]
	if base == 0 {
		return 0
	}
	return (float64(m.Cycles[wl][config])/float64(base) - 1) * 100
}

// WtdAriMeanOverhead computes the paper's weighted arithmetic mean overhead
// (footnote 5): AriMean(normalized runtime × plain runtime / Σ plain
// runtimes) − 1, i.e. total-cycles ratio across the suite. Workloads with a
// hole in either the config or the plain baseline are excluded (the mean is
// over the complete rows only; holes are annotated in the rendering).
func (m *Matrix) WtdAriMeanOverhead(config string) float64 {
	var sumPlain, sumCfg float64
	for _, wl := range m.Workloads {
		if !m.complete(wl, config) {
			continue
		}
		sumPlain += float64(m.Cycles[wl]["plain"])
		sumCfg += float64(m.Cycles[wl][config])
	}
	if sumPlain == 0 {
		return 0
	}
	return (sumCfg/sumPlain - 1) * 100
}

// GeoMeanOverhead computes the geometric mean overhead (footnote 6):
// GeoMean(plain-normalized runtime) − 1.
func (m *Matrix) GeoMeanOverhead(config string) float64 {
	logSum := 0.0
	n := 0
	for _, wl := range m.Workloads {
		if !m.complete(wl, config) {
			continue
		}
		base := float64(m.Cycles[wl]["plain"])
		if base == 0 {
			continue
		}
		logSum += math.Log(float64(m.Cycles[wl][config]) / base)
		n++
	}
	if n == 0 {
		return 0
	}
	return (math.Exp(logSum/float64(n)) - 1) * 100
}

// RenderOverheadTable prints the matrix as percent overheads over plain,
// one row per workload plus the two means, matching Figure 7/8's layout.
func (m *Matrix) RenderOverheadTable(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	cfgs := make([]string, 0, len(m.Configs))
	for _, c := range m.Configs {
		if c != "plain" {
			cfgs = append(cfgs, c)
		}
	}
	fmt.Fprintf(&b, "%-12s", "benchmark")
	for _, c := range cfgs {
		fmt.Fprintf(&b, "%16s", c)
	}
	b.WriteString("\n")
	for _, wl := range m.Workloads {
		fmt.Fprintf(&b, "%-12s", wl)
		for _, c := range cfgs {
			if !m.complete(wl, c) {
				fmt.Fprintf(&b, "%16s", "hole")
				continue
			}
			fmt.Fprintf(&b, "%15.1f%%", m.Overhead(wl, c))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-12s", "WtdAriMean")
	for _, c := range cfgs {
		fmt.Fprintf(&b, "%15.1f%%", m.WtdAriMeanOverhead(c))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-12s", "GeoMean")
	for _, c := range cfgs {
		fmt.Fprintf(&b, "%15.1f%%", m.GeoMeanOverhead(c))
	}
	b.WriteString("\n")
	b.WriteString(m.renderHoles())
	return b.String()
}

// renderHoles appends the hole annotations (empty string for a full matrix).
// Rows follow grid order so the output is deterministic.
func (m *Matrix) renderHoles() string {
	if m.HoleCount() == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "holes (%d of %d cells; means cover complete rows only):\n",
		m.HoleCount(), len(m.Workloads)*len(m.Configs))
	for _, wl := range m.Workloads {
		for _, c := range m.Configs {
			if reason, ok := m.Hole(wl, c); ok {
				fmt.Fprintf(&b, "  %s/%s: %s\n", wl, c, reason)
			}
		}
	}
	return b.String()
}

// CSV renders the raw cycle matrix as CSV.
func (m *Matrix) CSV() string {
	var b strings.Builder
	b.WriteString("benchmark")
	for _, c := range m.Configs {
		fmt.Fprintf(&b, ",%s", c)
	}
	b.WriteString("\n")
	for _, wl := range m.Workloads {
		b.WriteString(wl)
		for _, c := range m.Configs {
			if v, ok := m.Cycles[wl][c]; ok {
				fmt.Fprintf(&b, ",%d", v)
			} else {
				// Annotated hole: never render a missing cell as a number.
				b.WriteString(",NA")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SortedConfigNames returns config names alphabetically (stable output).
func (m *Matrix) SortedConfigNames() []string {
	out := append([]string(nil), m.Configs...)
	sort.Strings(out)
	return out
}
