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
	"slices"
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

// RunResult is one cell of the experiment matrix: its stats, outcome and
// metric registry. A finished cell holds no world.
type RunResult struct {
	Workload string
	Config   string
	Stats    *cpu.Stats
	Outcome  world.Outcome
	// Obs is the cell's private metric registry (nil unless the cell ran
	// with CellLimits.Metrics). The sweep merges cell registries in grid
	// order into Matrix.Obs.
	Obs *obs.Registry
	// Source tags which execution path produced the result: "stream",
	// "capture", "replay" or "result-store" (see obs.CellSpan.Source).
	// Observability metadata only — every path returns identical
	// Stats/Outcome by the differential tests' contract.
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
	// default: a nil registry keeps every probe on its nil fast path. A
	// file carries no registry, so such a cell is never served from the
	// persistent result store.
	Metrics bool
	// Engine selects the functional simulator's execution engine for the
	// cell (sim.EngineAuto = the decoded-block default, sim.EngineRef = the
	// single-step reference). Deliberately NOT part of any cache identity:
	// the engines produce byte-identical results, so a capture made under
	// one engine serves cells running under the other.
	Engine sim.Engine
}

// cellSpec is the world.Spec of one cell: cfg's build and timing knobs,
// lim's budgets and engine, and a fresh registry when lim asks for metrics.
// A replay world reads only its timing knobs and registry.
func cellSpec(cfg BinaryConfig, lim CellLimits) world.Spec {
	spec := world.Spec{
		Pass:            cfg.Pass,
		Mode:            cfg.Mode,
		Width:           core.Width(cfg.Pass.TokenWidth),
		InterceptLibc:   cfg.InterceptLibc,
		InOrder:         cfg.InOrder,
		CPU:             cfg.CPU,
		Hier:            cfg.Hier,
		MaxInstructions: lim.MaxInstructions,
		Engine:          lim.Engine,
	}
	if lim.Timeout > 0 {
		spec.Deadline = time.Now().Add(lim.Timeout)
	}
	if lim.Metrics {
		spec.Obs = obs.NewRegistry()
	}
	return spec
}

// cellErr attributes err to cell wl/cfg. It wraps with %w, not %v: the sweep
// engine classifies watchdog kills by unwrapping to
// *sim.BudgetExceededError.
func cellErr(wl workload.Workload, cfg BinaryConfig, err error) error {
	return fmt.Errorf("harness: %s/%s: %w", wl.Name, cfg.Name, err)
}

// runStreamed executes one cell against the live functional simulator. A
// non-nil c additionally records the dynamic trace into c.rec and, with
// metrics on, keeps the functional plane's metrics in c.funcObs, for the
// sibling cells that replay the capture.
func runStreamed(wl workload.Workload, cfg BinaryConfig, scale int64, lim CellLimits, c *capture) (*RunResult, error) {
	spec := cellSpec(cfg, lim)
	source := "stream"
	if c != nil {
		source = "capture"
		if spec.Obs != nil {
			// Split the planes so the functional half can be shared with
			// replaying siblings; finish merges it back, keeping this
			// cell's registry identical to an unsplit one.
			spec.FuncObs = obs.NewRegistry()
			c.funcObs = spec.FuncObs
		}
	}
	w, err := world.Build(spec, wl.Build(scale))
	if err != nil {
		return nil, cellErr(wl, cfg, err)
	}
	var stats *cpu.Stats
	var out world.Outcome
	if c == nil {
		stats, out = w.RunTimed()
	} else {
		stats, out = w.RunTimedCapture(c.rec)
	}
	return finish(wl, cfg, source, stats, out, spec.Obs, spec.FuncObs)
}

// runReplay executes one cell by replaying a sibling's captured trace
// through this cell's own timing model. The functional layers never run:
// the outcome comes from the capture, the functional metrics are merged
// from the capture's registry, and the token shadow inside the Replayer
// stands in for the tracker as the fill-time detector's TokenSource.
func runReplay(wl workload.Workload, cfg BinaryConfig, lim CellLimits, c *capture) (*RunResult, error) {
	spec := cellSpec(cfg, lim)
	rp := c.rec.Replayer()
	var tokens cache.TokenSource
	if c.rec.TokenWidth() != 0 {
		tokens = rp
	}
	w, err := world.BuildReplay(spec, tokens)
	if err != nil {
		return nil, cellErr(wl, cfg, err)
	}
	stats, out := w.ReplayTimed(rp, c.outcome)
	return finish(wl, cfg, "replay", stats, out, spec.Obs, c.funcObs)
}

// finish ends every cell that ran: it merges funcObs, the functional
// plane's registry when it was split off (nil otherwise, which Merge
// ignores), into the cell's registry reg, fails the cell on a simulation
// error or a detection, and returns its result.
func finish(wl workload.Workload, cfg BinaryConfig, source string, stats *cpu.Stats, out world.Outcome, reg, funcObs *obs.Registry) (*RunResult, error) {
	if err := reg.Merge(funcObs); err != nil {
		return nil, cellErr(wl, cfg, err)
	}
	if out.Err != nil {
		return nil, cellErr(wl, cfg, out.Err)
	}
	if out.Detected() {
		return nil, cellErr(wl, cfg, fmt.Errorf("spurious detection: %s", out))
	}
	return &RunResult{
		Workload: wl.Name, Config: cfg.Name,
		Stats: stats, Outcome: out,
		Obs: reg, Source: source,
	}, nil
}

// Matrix is one sweep's grid: a cell per (workload, config), in grid order
// (workload-major), each holding its result or, as a hole, why it has none
// — failed, timed out or skipped. A sweep that degrades gracefully returns
// the partial matrix with its holes instead of aborting; every renderer
// marks them explicitly so a gap can never pass for a zero.
type Matrix struct {
	Workloads []string
	Configs   []string
	// cells is the grid: workload w's cell under config c is
	// cells[w*len(Configs)+c]. The sweep's workers fill it in place.
	cells []cell
	// Obs is the sweep-level metric registry: every cell's private registry
	// merged in grid order, plus harness.* sweep counters. Nil unless the
	// sweep ran with metrics enabled. Because cell registries are merged in
	// grid order (never completion order) and every merge operation is
	// commutative, the aggregate is byte-identical at any worker count.
	Obs *obs.Registry
}

// cell is one grid cell: its result, or a hole with the error that made it
// (nil for a cell skipped after cancellation) and its one-line reason.
type cell struct {
	res    *RunResult
	err    error
	reason string
}

// newMatrix returns the grid of wls × cfgs with no cell filled.
func newMatrix(wls []workload.Workload, cfgs []BinaryConfig) *Matrix {
	m := &Matrix{cells: make([]cell, len(wls)*len(cfgs))}
	for _, wl := range wls {
		m.Workloads = append(m.Workloads, wl.Name)
	}
	for _, c := range cfgs {
		m.Configs = append(m.Configs, c.Name)
	}
	return m
}

// row returns workload w's cells, in config order.
func (m *Matrix) row(w int) []cell {
	n := len(m.Configs)
	return m.cells[w*n : (w+1)*n]
}

// at returns workload wl's cell under config cfg (nil when the grid has no
// such cell).
func (m *Matrix) at(wl, cfg string) *cell {
	w, c := slices.Index(m.Workloads, wl), slices.Index(m.Configs, cfg)
	if w < 0 || c < 0 {
		return nil
	}
	return &m.row(w)[c]
}

// Result returns workload wl's result under config cfg (nil for a hole).
func (m *Matrix) Result(wl, cfg string) *RunResult {
	if c := m.at(wl, cfg); c != nil {
		return c.res
	}
	return nil
}

// Cycles returns workload wl's simulated cycles under config cfg, and
// whether the cell has a result.
func (m *Matrix) Cycles(wl, cfg string) (uint64, bool) {
	if r := m.Result(wl, cfg); r != nil {
		return r.Stats.Cycles, true
	}
	return 0, false
}

// Hole reports why workload wl has no result under config cfg; ok is false
// when the cell has one.
func (m *Matrix) Hole(wl, cfg string) (reason string, ok bool) {
	c := m.at(wl, cfg)
	if c == nil || c.res != nil {
		return "", false
	}
	return c.reason, true
}

// HoleCount reports how many cells of the sweep are holes.
func (m *Matrix) HoleCount() int {
	n := 0
	for _, c := range m.cells {
		if c.res == nil {
			n++
		}
	}
	return n
}

// aggregateObs folds every cell's private registry into Matrix.Obs in grid
// order (workload-major, then config), then adds the sweep-level harness.*
// counters derived from the holes. Grid-order merging plus commutative
// merge operations make the aggregate independent of cell completion
// order, so the sweep's metrics honour the same determinism contract as
// its tables: byte-identical at any -j. A registry that fails to merge
// comes back as its cell's error.
func (m *Matrix) aggregateObs() *CellError {
	agg := obs.NewRegistry()
	ok := agg.Counter("harness.cells_ok")
	hole := agg.Counter("harness.cells_hole")
	skipped := agg.Counter("harness.cells_skipped")
	watchdog := agg.Counter("harness.watchdog_trips")
	for w, wl := range m.Workloads {
		for c, cl := range m.row(w) {
			switch {
			case cl.res != nil && cl.res.Obs != nil:
				if err := agg.Merge(cl.res.Obs); err != nil {
					return &CellError{Workload: wl, Config: m.Configs[c], Err: err}
				}
				ok.Inc()
			case cl.res == nil:
				hole.Inc()
				if strings.HasPrefix(cl.reason, "skipped") {
					skipped.Inc()
				}
				if strings.HasPrefix(cl.reason, "watchdog") {
					watchdog.Inc()
				}
			}
		}
	}
	m.Obs = agg
	return nil
}

// plain returns the column of the plain baseline, which every derived
// number needs (-1 when the grid has none).
func (m *Matrix) plain() int { return slices.Index(m.Configs, "plain") }

// pair returns one row's cycles under config column c and under the plain
// column base, and whether both cells have results.
func pair(row []cell, c, base int) (cycles, plain uint64, ok bool) {
	if c < 0 || base < 0 || row[c].res == nil || row[base].res == nil {
		return 0, 0, false
	}
	return row[c].res.Stats.Cycles, row[base].res.Stats.Cycles, true
}

// overhead is the percent slowdown of cycles over the plain run's
// (0 for a plain run of no cycles).
func overhead(cycles, plain uint64) float64 {
	if plain == 0 {
		return 0
	}
	return (float64(cycles)/float64(plain) - 1) * 100
}

// Overhead returns the percent slowdown of config vs the plain baseline for
// one workload (0 when either cell is a hole).
func (m *Matrix) Overhead(wl, config string) float64 {
	w := slices.Index(m.Workloads, wl)
	if w < 0 {
		return 0
	}
	cycles, plain, _ := pair(m.row(w), slices.Index(m.Configs, config), m.plain())
	return overhead(cycles, plain)
}

// WtdAriMeanOverhead computes the paper's weighted arithmetic mean overhead
// (footnote 5): AriMean(normalized runtime × plain runtime / Σ plain
// runtimes) − 1, i.e. total-cycles ratio across the suite. Workloads with a
// hole in either the config or the plain baseline are excluded (the mean is
// over the complete rows only; holes are annotated in the rendering).
func (m *Matrix) WtdAriMeanOverhead(config string) float64 {
	c, base := slices.Index(m.Configs, config), m.plain()
	var sumPlain, sumCfg float64
	for w := range m.Workloads {
		cycles, plain, ok := pair(m.row(w), c, base)
		if !ok {
			continue
		}
		sumPlain += float64(plain)
		sumCfg += float64(cycles)
	}
	if sumPlain == 0 {
		return 0
	}
	return (sumCfg/sumPlain - 1) * 100
}

// GeoMeanOverhead computes the geometric mean overhead (footnote 6):
// GeoMean(plain-normalized runtime) − 1.
func (m *Matrix) GeoMeanOverhead(config string) float64 {
	c, base := slices.Index(m.Configs, config), m.plain()
	logSum := 0.0
	n := 0
	for w := range m.Workloads {
		cycles, plain, ok := pair(m.row(w), c, base)
		if !ok || plain == 0 {
			continue
		}
		logSum += math.Log(float64(cycles) / float64(plain))
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
	base := m.plain()
	cols := make([]int, 0, len(m.Configs))
	for c := range m.Configs {
		if c != base {
			cols = append(cols, c)
		}
	}
	fmt.Fprintf(&b, "%-12s", "benchmark")
	for _, c := range cols {
		fmt.Fprintf(&b, "%16s", m.Configs[c])
	}
	b.WriteString("\n")
	for w, wl := range m.Workloads {
		fmt.Fprintf(&b, "%-12s", wl)
		for _, c := range cols {
			if cycles, plain, ok := pair(m.row(w), c, base); ok {
				fmt.Fprintf(&b, "%15.1f%%", overhead(cycles, plain))
			} else {
				fmt.Fprintf(&b, "%16s", "hole")
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-12s", "WtdAriMean")
	for _, c := range cols {
		fmt.Fprintf(&b, "%15.1f%%", m.WtdAriMeanOverhead(m.Configs[c]))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-12s", "GeoMean")
	for _, c := range cols {
		fmt.Fprintf(&b, "%15.1f%%", m.GeoMeanOverhead(m.Configs[c]))
	}
	b.WriteString("\n")
	b.WriteString(m.renderHoles())
	return b.String()
}

// renderHoles appends the hole annotations (empty string for a full matrix)
// in grid order, so the output is deterministic.
func (m *Matrix) renderHoles() string {
	holes := m.HoleCount()
	if holes == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "holes (%d of %d cells; means cover complete rows only):\n", holes, len(m.cells))
	for w, wl := range m.Workloads {
		for c, cl := range m.row(w) {
			if cl.res == nil {
				fmt.Fprintf(&b, "  %s/%s: %s\n", wl, m.Configs[c], cl.reason)
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
	for w, wl := range m.Workloads {
		b.WriteString(wl)
		for _, c := range m.row(w) {
			if c.res != nil {
				fmt.Fprintf(&b, ",%d", c.res.Stats.Cycles)
			} else {
				// A hole: never render a missing cell as a number.
				b.WriteString(",NA")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
