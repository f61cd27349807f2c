package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// Modes of a run (-trace).
const (
	modeEndToEnd = 0 // untraced invocations: the end-to-end metrics
	modeLayers   = 1 // a traced run: the per-layer metrics
	modeBoth     = 2
)

// runner measures workloads against one restbench binary.
type runner struct {
	ctx    context.Context
	bin    string // the restbench binary
	work   string // scratch directory, removed by the caller
	jobs   int
	in     SeedInputs
	budget time.Duration // measuring time per workload
	suite  *Suite
	defs   map[string]MetricDef // every end-to-end metric's definition
	spans  *spanLog
	// grids holds each grid's decomposition, by grid name. A grid is
	// decomposed once per run, however many workloads print it.
	grids map[string]*gridPart
	log   func(format string, args ...any)
}

// newRunner prepares a runner for one restbench binary and one seed's
// inputs. The caller sets the measuring budget.
func newRunner(ctx context.Context, c *Contract, s *Suite, in SeedInputs, bin, work string, log func(string, ...any)) *runner {
	r := &runner{
		ctx: ctx, bin: bin, work: work, jobs: min(2, runtime.NumCPU()), in: in, suite: s,
		defs: map[string]MetricDef{}, spans: newSpanLog(), grids: map[string]*gridPart{}, log: log,
	}
	for _, d := range append(append([]MetricDef(nil), c.EndToEnd...), s.Extra...) {
		r.defs[d.Name] = d
	}
	return r
}

// errIncorrect marks an output that differs from what it must be: a stdout
// digest, a cross-workload equality, or a cycle the decomposition
// reproduced differently.
type errIncorrect struct{ msg string }

func (e *errIncorrect) Error() string { return e.msg }

func incorrect(format string, args ...any) error {
	return &errIncorrect{fmt.Sprintf(format, args...)}
}

// args is the restbench command line of a workload: the user's real
// command at the seed's inputs.
func (r *runner) args(w WorkloadSpec) []string {
	args := append([]string(nil), w.Args...)
	if r.in.Variants && slices.Contains(args, "-fig7") {
		args = append(args, "-variants")
	}
	return append(args, "-scale", strconv.FormatInt(r.in.Scale, 10), "-j", strconv.Itoa(r.jobs), "-csv")
}

// series runs invocations until done and returns the successful ones.
func series(run func(rep int) (invocation, bool, error), done func(rep int) bool) ([]invocation, error) {
	var out []invocation
	for rep := 0; !done(rep); rep++ {
		iv, ok, err := run(rep)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, iv)
		}
	}
	return out, nil
}

// workload measures one workload in the given mode. On error the result
// still carries the invocations attempted and failed.
func (r *runner) workload(w WorkloadSpec, mode int) (*WorkloadResult, error) {
	res := &WorkloadResult{Name: w.Name}
	rec := r.suite.record(r.in, w.Name)
	limit := 10 * time.Minute
	if rec != nil {
		res.Digest = rec.StdoutSHA256
		if b, ok := rec.Baseline["run_s"]; ok {
			limit = max(time.Duration(10*b.Median*float64(time.Second)), 2*time.Second)
		}
	}
	args := r.args(w)

	// check accepts a successful invocation's stdout: it must match the
	// recorded digest or, with none recorded, the first one seen.
	check := func(iv invocation) error {
		if res.Digest == "" {
			res.Digest = iv.Digest
		}
		if iv.Digest != res.Digest {
			return incorrect("%s: restbench %v printed stdout %s, want %s", w.Name, args, iv.Digest, res.Digest)
		}
		return nil
	}
	store := filepath.Join(r.work, w.Name+"-store")
	// measure runs one counted invocation, returning whether it succeeded.
	measure := func(name string, rep int, extra ...string) (invocation, bool, error) {
		a := append(append([]string(nil), args...), extra...)
		cleanup := func() {}
		switch w.Store {
		case "cold":
			dir := filepath.Join(r.work, fmt.Sprintf("%s-%s-%d", w.Name, name, rep))
			a = append(a, "-cache-dir", dir)
			cleanup = func() { os.RemoveAll(dir) }
		case "warm":
			a = append(a, "-cache-dir", store)
		}
		var iv invocation
		r.spans.timed(name, fmt.Sprintf("%s#%d", w.Name, rep), func() { iv = invoke(r.ctx, limit, r.bin, a...) })
		cleanup()
		res.Attempted++
		if iv.Err != nil {
			res.Failed++
			r.log("%s: invocation failed: %v", w.Name, iv.Err)
			return iv, false, r.ctx.Err()
		}
		return iv, true, check(iv)
	}

	if w.Store == "warm" {
		// Fill the store once with the same command; the warm invocations
		// must then print what the fill printed.
		var iv invocation
		r.spans.timed("setup.fill", w.Name, func() {
			iv = invoke(r.ctx, 10*time.Minute, r.bin, append(args, "-cache-dir", store)...)
		})
		if iv.Err != nil {
			return res, fmt.Errorf("%s: filling the store: %w", w.Name, iv.Err)
		}
		if err := check(iv); err != nil {
			return res, err
		}
		r.log("%s: store filled in %.3fs", w.Name, iv.Wall.Seconds())
	}

	var plain []invocation
	if mode != modeLayers {
		start := time.Now()
		var err error
		plain, err = series(
			func(rep int) (invocation, bool, error) { return measure("restbench", rep) },
			func(int) bool { return res.Attempted >= w.MinReps && time.Since(start) >= r.budget })
		if err != nil {
			return res, err
		}
		if len(plain) == 0 {
			return res, fmt.Errorf("%s: every invocation failed", w.Name)
		}
	}
	if mode != modeEndToEnd {
		// Alone, the traced run measures for the budget; after the
		// end-to-end invocations it needs only enough cells.
		budget := r.budget
		if mode == modeBoth {
			budget = 0
		}
		layers, instrs, err := r.traced(w, budget, measure)
		if err != nil {
			return res, err
		}
		res.Layers, res.Instrs = layers, instrs
	}
	if mode != modeLayers {
		instrs := res.Instrs
		if instrs == 0 && rec != nil {
			instrs = rec.Instrs
		}
		res.EndToEnd = r.endToEnd(w.Name, plain, instrs)
	}
	return res, nil
}

// endToEnd summarizes the untraced invocations into the end-to-end metrics
// defined for the workload.
func (r *runner) endToEnd(workload string, ivs []invocation, instrs uint64) map[string]Metric {
	var wall, cpu, rss, setup, rate []float64
	for _, iv := range ivs {
		wall = append(wall, iv.Wall.Seconds())
		cpu = append(cpu, iv.CPU.Seconds())
		setup = append(setup, iv.setup().Seconds())
		rss = append(rss, iv.RSSMB)
		if el := iv.Facts.totalElapsed(); instrs > 0 && el > 0 {
			rate = append(rate, float64(instrs)/1e6/el.Seconds())
		}
	}
	ms := map[string]Metric{
		"run_s":       sampled(wall, "s"),
		"cpu_s":       sampled(cpu, "s"),
		"peak_rss_mb": sampled(rss, "MB"),
		"setup_s":     sampled(setup, "s"),
	}
	if p90, ok := percentile(wall, 0.9); ok {
		ms["run_s_p90"] = value(p90, "s")
	}
	if len(rate) == len(ivs) {
		ms["sim_minstr_per_s"] = sampled(rate, "Minstr/s")
	}
	out := map[string]Metric{}
	for name, m := range ms {
		d, ok := r.defs[name]
		if !ok || (len(d.Workloads) > 0 && !slices.Contains(d.Workloads, workload)) {
			continue
		}
		m.Better, m.Bound, m.Floor = d.Better, d.Bound, r.suite.Floors[name]
		out[name] = m
	}
	return out
}

// traced runs pairs of invocations, one untraced and one with restbench's
// -trace, until at least 100 traced cells from two pairs are pooled and the
// budget is spent. Then it decomposes every grid the workload printed. It
// returns the per-layer metrics and the exact instruction count of one
// invocation. Pairing the traced invocations with untraced neighbours keeps
// the tracing overhead clear of the host's drift. (-metrics is left off:
// cells with metric registries bypass the persistent store, so it would
// change what the workload runs.)
func (r *runner) traced(w WorkloadSpec, budget time.Duration,
	measure func(string, int, ...string) (invocation, bool, error)) (map[string]Metric, uint64, error) {
	var mats []csvMatrix
	wantCycles := map[string]uint64{} // Σ reported cycles per sweep
	tracePath := filepath.Join(r.work, "trace.json")
	var busy, cellMs, overhead []float64
	var cells, replayed, resultHits int
	var instrs uint64
	start := time.Now()
	_, err := series(func(rep int) (invocation, bool, error) {
		u, ok, err := measure("restbench.untraced", rep)
		if !ok || err != nil {
			return u, ok, err
		}
		if mats == nil {
			if mats, err = r.matrices(u.Stdout, wantCycles); err != nil {
				return u, false, err
			}
		}
		iv, ok, err := measure("restbench.traced", rep, "-trace", tracePath)
		if !ok || err != nil {
			return iv, ok, err
		}
		sl, n, err := readTelemetry(tracePath, wantCycles)
		if err != nil {
			return iv, false, fmt.Errorf("%s: %w", w.Name, err)
		}
		instrs = n
		var sum time.Duration
		for _, s := range sl {
			sum += s.Dur
			cellMs = append(cellMs, float64(s.Dur)/float64(time.Millisecond))
		}
		busy = append(busy, sum.Seconds()/(iv.Facts.totalElapsed().Seconds()*float64(r.jobs)))
		overhead = append(overhead, (iv.Wall.Seconds()/u.Wall.Seconds()-1)*100)
		cells += len(sl)
		replayed += iv.Facts.Replayed
		resultHits += iv.Facts.ResultHits
		return iv, true, nil
	}, func(rep int) bool {
		return rep-len(busy) >= 10 || len(busy) >= 2 && len(cellMs) >= 100 && time.Since(start) >= budget
	})
	if err != nil {
		return nil, 0, err
	}
	if len(busy) < 2 || len(cellMs) < 100 {
		return nil, 0, fmt.Errorf("%s: traced invocations keep failing", w.Name)
	}
	p90, _ := percentile(cellMs, 0.9)
	ms := map[string]Metric{
		"harness.cell_ms_p50":        value(median(cellMs), "ms"),
		"harness.cell_ms_p90":        value(p90, "ms"),
		"harness.worker_busy_ratio":  value(median(busy), "ratio"),
		"harness.trace_replay_ratio": value(float64(replayed)/float64(cells), "ratio"),
		"persist.result_hit_ratio":   value(float64(resultHits)/float64(cells), "ratio"),
		"trace_overhead_pct":         value(median(overhead), "%"),
	}

	var parts []*gridPart
	for _, m := range mats {
		p, err := r.decomposition(m)
		if err != nil {
			return nil, 0, err
		}
		parts = append(parts, p)
	}
	for name, m := range layerMetrics(r.spans, parts) {
		if l, ok := r.suite.layer(name); ok {
			m.Simulated = l.Simulated
		}
		ms[name] = m
	}
	return ms, instrs, nil
}

// matrices parses the cycle matrices of a correct stdout and adds each
// grid's total cycles to want, by sweep name.
func (r *runner) matrices(stdout string, want map[string]uint64) ([]csvMatrix, error) {
	mats, err := parseCSV(stdout)
	if err != nil {
		return nil, err
	}
	for _, m := range mats {
		g, err := gridFor(m, r.in)
		if err != nil {
			return nil, err
		}
		for _, row := range m.Cycles {
			for _, c := range row {
				want[g.name] += c
			}
		}
	}
	return mats, nil
}

// decomposition returns the decomposition of the grid that printed m,
// running it unless an earlier workload of the run printed the same grid.
// Then the two matrices must agree cell for cell, so every cell of this
// workload's report is still checked.
func (r *runner) decomposition(m csvMatrix) (*gridPart, error) {
	g, err := gridFor(m, r.in)
	if err != nil {
		return nil, err
	}
	if p, ok := r.grids[g.name]; ok {
		if !reflect.DeepEqual(p.matrix, m) {
			return nil, incorrect("%s: two workloads printed different cycle matrices", g.name)
		}
		return p, nil
	}
	dir := filepath.Join(r.work, g.name+"-decompose")
	p, err := decompose(g, m, r.in.Scale, dir, r.spans)
	os.RemoveAll(dir)
	if err != nil {
		return nil, err
	}
	r.grids[g.name] = p
	return p, nil
}

// readTelemetry reads one traced invocation's Catapult file. Every cell must
// be a clean slice, and per sweep that printed a matrix the slices' cycles
// must sum to the matrix's. It returns the slices and their total
// instruction count.
func readTelemetry(tracePath string, wantCycles map[string]uint64) ([]cellSlice, uint64, error) {
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		return nil, 0, err
	}
	sl, err := parseCatapult(raw)
	if err != nil {
		return nil, 0, err
	}
	cycles := map[string]uint64{}
	var instrs uint64
	for _, s := range sl {
		if s.Verdict != "ok" {
			return nil, 0, incorrect("cell %s/%s of %s: verdict %s", s.Workload, s.Config, s.Sweep, s.Verdict)
		}
		cycles[s.Sweep] += s.Cycles
		instrs += s.Instrs
	}
	for sweep, want := range wantCycles {
		if cycles[sweep] != want {
			return nil, 0, incorrect("%s: traced cells sum to %d cycles, the report to %d", sweep, cycles[sweep], want)
		}
	}
	return sl, instrs, nil
}
