// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI), plus component microbenchmarks and the ablation studies DESIGN.md
// calls out. Reported custom metrics carry the paper-comparable numbers:
// overhead percentages (paper Figure 7: REST secure ≈ 2%, debug ≈ 25%,
// ASan ≈ 40%), detection lag, and simulator throughput.
//
// Run with: go test -bench=. -benchmem
package rest_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"rest"
	"rest/internal/attack"
	"rest/internal/bpred"
	"rest/internal/cache"
	"rest/internal/core"
	"rest/internal/cpu"
	"rest/internal/harness"
	"rest/internal/isa"
	"rest/internal/obs"
	"rest/internal/obs/otlp"
	"rest/internal/persist"
	"rest/internal/prog"
	"rest/internal/sim"
	"rest/internal/trace"
	"rest/internal/workload"
	"rest/internal/world"
)

// benchScale keeps the full matrices tractable under `go test -bench=.`;
// cmd/restbench -scale N runs the long versions.
const benchScale = 2

// BenchmarkFigure1Heartbleed runs the Listing 1 attack under heap-only REST
// (the legacy-binary deployment) through the timing model and reports the
// detection lag of the imprecise secure-mode exception.
func BenchmarkFigure1Heartbleed(b *testing.B) {
	a, _ := attack.ByName("heartbleed")
	var lag, cycles uint64
	for i := 0; i < b.N; i++ {
		w, err := world.Build(world.Spec{Pass: prog.RESTHeap(64), Mode: core.Secure}, a.Build)
		if err != nil {
			b.Fatal(err)
		}
		stats, out := w.RunTimed()
		if out.Exception == nil {
			b.Fatal("heartbleed not detected")
		}
		lag = out.Exception.DetectLagCycles
		cycles = stats.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles-to-detect")
	b.ReportMetric(float64(lag), "detect-lag-cycles")
}

// BenchmarkFigure3ASanBreakdown regenerates the ASan component breakdown and
// reports the suite-mean marginal overhead of each component.
func BenchmarkFigure3ASanBreakdown(b *testing.B) {
	var r *harness.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = harness.RunFig3(context.Background(), workload.All(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	means := make([]float64, len(harness.Fig3Components))
	for _, wl := range r.Workloads {
		for i, v := range r.Breakdown[wl] {
			means[i] += v / float64(len(r.Workloads))
		}
	}
	b.ReportMetric(means[0], "alloc-%")
	b.ReportMetric(means[1], "stack-%")
	b.ReportMetric(means[2], "checks-%")
	b.ReportMetric(means[3], "intercept-%")
}

// BenchmarkFigure7Overheads regenerates the headline result: the full
// workload × configuration overhead matrix. The reported metrics are the
// weighted arithmetic means the paper quotes (REST secure 2%, debug 25%,
// ASan ~40% at SPEC scale).
func BenchmarkFigure7Overheads(b *testing.B) {
	var m *harness.Matrix
	var err error
	for i := 0; i < b.N; i++ {
		m, err = harness.RunMatrix(workload.All(), harness.Fig7Configs(), benchScale, harness.CellLimits{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.WtdAriMeanOverhead("asan"), "asan-%")
	b.ReportMetric(m.WtdAriMeanOverhead("secure-full"), "secure-full-%")
	b.ReportMetric(m.WtdAriMeanOverhead("secure-heap"), "secure-heap-%")
	b.ReportMetric(m.WtdAriMeanOverhead("debug-full"), "debug-full-%")
	b.ReportMetric(m.WtdAriMeanOverhead("perfecthw-full"), "perfecthw-full-%")
}

// BenchmarkFigure7OverheadsParallel is the same Figure 7 sweep on the
// parallel engine at the full core count. Comparing its wall clock against
// BenchmarkFigure7Overheads shows the sweep speedup; the cycle matrices are
// guaranteed identical (pinned by the harness determinism tests).
func BenchmarkFigure7OverheadsParallel(b *testing.B) {
	opt := harness.ParallelOptions{Workers: runtime.GOMAXPROCS(0)}
	var m *harness.Matrix
	var err error
	for i := 0; i < b.N; i++ {
		m, err = harness.RunMatrixParallel(context.Background(),
			workload.All(), harness.Fig7Configs(), benchScale, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(opt.EffectiveWorkers()), "workers")
	b.ReportMetric(m.WtdAriMeanOverhead("asan"), "asan-%")
	b.ReportMetric(m.WtdAriMeanOverhead("secure-full"), "secure-full-%")
}

// BenchmarkFigure8TokenWidths sweeps 16/32/64-byte tokens in secure mode;
// the paper's finding is that width does not significantly affect
// performance.
func BenchmarkFigure8TokenWidths(b *testing.B) {
	cfgs := append(harness.Fig8Configs(),
		harness.BinaryConfig{Name: "plain", Pass: prog.Plain()})
	var m *harness.Matrix
	var err error
	for i := 0; i < b.N; i++ {
		m, err = harness.RunMatrix(workload.All(), cfgs, benchScale, harness.CellLimits{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.WtdAriMeanOverhead("16-full"), "w16-full-%")
	b.ReportMetric(m.WtdAriMeanOverhead("32-full"), "w32-full-%")
	b.ReportMetric(m.WtdAriMeanOverhead("64-full"), "w64-full-%")
}

// runFig8Sensitivity times one Figure 8 sensitivity sweep, with or without
// the trace cache, and returns the wall clock plus the cache counters.
func runFig8Sensitivity(tb testing.TB, cached bool) (time.Duration, uint64, uint64) {
	tb.Helper()
	opt := harness.ParallelOptions{Workers: runtime.GOMAXPROCS(0)}
	var tc *harness.TraceCache
	if cached {
		tc = harness.NewTraceCache()
		opt.TraceCache = tc
	}
	start := time.Now()
	if _, err := harness.RunMatrixParallel(context.Background(), workload.All(), harness.Fig8SensitivityConfigs(), benchScale, opt); err != nil {
		tb.Fatal(err)
	}
	wall := time.Since(start)
	if tc == nil {
		return wall, 0, 0
	}
	hits, misses, _ := tc.Counters()
	return wall, hits, misses
}

// BenchmarkFig8CaptureReplay is the tentpole's headline A/B: the Figure 8
// timing-sensitivity sweep with the trace cache on (each build executes once,
// its timing variants replay) versus off (every cell re-executes the
// functional simulator). The sweep reports are byte-identical either way —
// the replay differential tests pin that — so "reduction-%" is pure saved
// wall clock.
func BenchmarkFig8CaptureReplay(b *testing.B) {
	var on, off time.Duration
	for i := 0; i < b.N; i++ {
		don, _, _ := runFig8Sensitivity(b, true)
		doff, _, _ := runFig8Sensitivity(b, false)
		on += don
		off += doff
	}
	b.ReportMetric(float64(on.Nanoseconds())/float64(b.N), "cacheon-ns")
	b.ReportMetric(float64(off.Nanoseconds())/float64(b.N), "cacheoff-ns")
	b.ReportMetric(100*(1-float64(on)/float64(off)), "reduction-%")
}

// runFig8SensitivityDisk times one Figure 8 sensitivity sweep against a
// persistent cache directory (a fresh TraceCache each call, so every hit is
// the result store's doing, not in-process memory) and returns the wall clock
// with the store's counters.
func runFig8SensitivityDisk(tb testing.TB, dir string, popt persist.Options) (time.Duration, persist.Counters) {
	tb.Helper()
	pc, err := persist.Open(dir, popt)
	if err != nil {
		tb.Fatal(err)
	}
	defer pc.Close()
	tc := harness.NewTraceCache()
	tc.AttachDisk(pc)
	opt := harness.ParallelOptions{Workers: runtime.GOMAXPROCS(0), TraceCache: tc}
	start := time.Now()
	if _, err := harness.RunMatrixParallel(context.Background(), workload.All(), harness.Fig8SensitivityConfigs(), benchScale, opt); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start), pc.Counters()
}

// BenchmarkFig8DiskColdWarm pairs a cold persistent cache (empty directory:
// every cell captures and stores) against a warm one (every cell served from
// the result store) on the Figure 8 sensitivity sweep. The reports are
// byte-identical either way — the disk differential tests pin that — so
// "warm-reduction-%" is pure saved wall clock across processes.
func BenchmarkFig8DiskColdWarm(b *testing.B) {
	var cold, warm time.Duration
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		dc, _ := runFig8SensitivityDisk(b, dir, persist.Options{})
		dw, _ := runFig8SensitivityDisk(b, dir, persist.Options{})
		cold += dc
		warm += dw
	}
	b.ReportMetric(float64(cold.Nanoseconds())/float64(b.N), "cold-ns")
	b.ReportMetric(float64(warm.Nanoseconds())/float64(b.N), "warm-ns")
	b.ReportMetric(100*(1-float64(warm)/float64(cold)), "warm-reduction-%")
}

// runFig8SensitivityTelemetry times one Figure 8 sensitivity sweep with or
// without the streaming telemetry exporter attached: per-cell span encoding
// and publication, with one subscriber draining the stream concurrently (the
// realistic -serve + attached collector shape).
func runFig8SensitivityTelemetry(tb testing.TB, export bool) time.Duration {
	tb.Helper()
	opt := harness.ParallelOptions{Workers: runtime.GOMAXPROCS(0)}
	var tel *otlp.Exporter
	var sub *otlp.Subscriber
	drained := make(chan struct{})
	if export {
		tel = otlp.NewExporter("restbench", nil)
		sub = tel.Bus.Subscribe(0)
		go func() {
			for range sub.C() {
			}
			close(drained)
		}()
		opt.OnCell = harness.ObserveCells("fig8sens", nil, nil, tel.Observe)
	}
	start := time.Now()
	if _, err := harness.RunMatrixParallel(context.Background(), workload.All(), harness.Fig8SensitivityConfigs(), benchScale, opt); err != nil {
		tb.Fatal(err)
	}
	wall := time.Since(start)
	if export {
		tel.Bus.Unsubscribe(sub)
		<-drained
	}
	return wall
}

// BenchmarkTelemetryOverhead is the exporter A/B as a paired benchmark. It
// reports the delta and gates nothing: on a shared host the delta swings by
// more than the exporter costs.
func BenchmarkTelemetryOverhead(b *testing.B) {
	var bare, exported time.Duration
	for i := 0; i < b.N; i++ {
		bare += runFig8SensitivityTelemetry(b, false)
		exported += runFig8SensitivityTelemetry(b, true)
	}
	b.ReportMetric(float64(bare.Nanoseconds())/float64(b.N), "bare-ns")
	b.ReportMetric(float64(exported.Nanoseconds())/float64(b.N), "exported-ns")
	b.ReportMetric(100*(float64(exported)/float64(bare)-1), "telemetry-delta-%")
}

// BenchmarkObsOverhead pairs the Figure 3 sweep with the observability plane
// enabled (per-cell registries, live occupancy sampling, end-of-run flushes)
// against the default nil sink, on one worker so the comparison is pure
// simulation throughput. The contract is that the nil fast path keeps the
// disabled cost at zero and the enabled cost under a few percent;
// "obs-delta-%" reports the measured gap.
func BenchmarkObsOverhead(b *testing.B) {
	wls := workload.All()
	run := func(metrics bool) time.Duration {
		start := time.Now()
		_, err := harness.RunFig3Parallel(context.Background(), wls, benchScale,
			harness.ParallelOptions{Workers: 1, Metrics: metrics})
		if err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var nilSink, observed time.Duration
	for i := 0; i < b.N; i++ {
		nilSink += run(false)
		observed += run(true)
	}
	b.ReportMetric(float64(nilSink.Nanoseconds())/float64(b.N), "nilsink-ns")
	b.ReportMetric(float64(observed.Nanoseconds())/float64(b.N), "observed-ns")
	b.ReportMetric(100*(float64(observed)/float64(nilSink)-1), "obs-delta-%")
}

// BenchmarkTable1Semantics runs the Table I conformance matrix.
func BenchmarkTable1Semantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, ok := harness.RunTableI(); !ok {
			b.Fatal("Table I conformance failed")
		}
	}
}

// BenchmarkMicroStats reproduces the §VI-B statistics for xalanc and reports
// the debug/secure ROB-store-blocking ratio (paper: ~an order of magnitude)
// and the token L2/memory crossing rate (paper: ~0.04/kinstr).
func BenchmarkMicroStats(b *testing.B) {
	wl, _ := workload.ByName("xalanc")
	var s *harness.MicroStats
	var err error
	for i := 0; i < b.N; i++ {
		s, err = harness.RunMicroStatsParallel(context.Background(), wl, benchScale, harness.ParallelOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.DebugROBStoreBlock)/float64(s.SecureROBStoreBlock+1), "rob-block-ratio")
	b.ReportMetric(s.TokenL2MemPerKInstr, "tokens-l2mem/kinstr")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationSerializedArm compares the paper's LSQ matching logic
// against the rejected simple alternative (serialize every arm/disarm);
// the reported metric is the extra overhead serialization would cost.
func BenchmarkAblationSerializedArm(b *testing.B) {
	wl, _ := workload.ByName("xalanc")
	var lsqCycles, serCycles uint64
	for i := 0; i < b.N; i++ {
		run := func(serialize bool) uint64 {
			ccfg := cpu.DefaultConfig()
			ccfg.SerializeArmDisarm = serialize
			w, err := world.Build(world.Spec{
				Pass: prog.RESTFull(64), Mode: core.Secure, CPU: &ccfg,
			}, wl.Build(benchScale))
			if err != nil {
				b.Fatal(err)
			}
			stats, out := w.RunTimed()
			if out.Err != nil || out.Detected() {
				b.Fatalf("unexpected outcome: %s", out)
			}
			return stats.Cycles
		}
		lsqCycles = run(false)
		serCycles = run(true)
	}
	b.ReportMetric(float64(lsqCycles), "lsq-check-cycles")
	b.ReportMetric(float64(serCycles), "serialized-cycles")
	b.ReportMetric(100*(float64(serCycles)/float64(lsqCycles)-1), "serialization-penalty-%")
}

// BenchmarkAblationQuarantine sweeps the quarantine capacity: larger
// quarantines lengthen the temporal-protection window at the cost of more
// token churn (§V-C "Temporal Protection").
func BenchmarkAblationQuarantine(b *testing.B) {
	wl, _ := workload.ByName("xalanc")
	caps := []uint64{32 << 10, 256 << 10, 2 << 20}
	names := []string{"cap32k-cycles", "cap256k-cycles", "cap2m-cycles"}
	var res [3]uint64
	for i := 0; i < b.N; i++ {
		for j, c := range caps {
			cc := c
			w, err := world.Build(world.Spec{
				Pass: prog.RESTHeap(64), Mode: core.Secure, QuarantineCap: &cc,
			}, wl.Build(benchScale))
			if err != nil {
				b.Fatal(err)
			}
			stats, out := w.RunTimed()
			if out.Err != nil || out.Detected() {
				b.Fatalf("unexpected outcome: %s", out)
			}
			res[j] = stats.Cycles
		}
	}
	for j, n := range names {
		b.ReportMetric(float64(res[j]), n)
	}
}

// BenchmarkAblationRedzone sweeps the redzone size: wider redzones catch
// longer jumps over the bookends but cost more arms per allocation.
func BenchmarkAblationRedzone(b *testing.B) {
	wl, _ := workload.ByName("gcc")
	sizes := []uint64{64, 128, 256}
	names := []string{"rz64-cycles", "rz128-cycles", "rz256-cycles"}
	var res [3]uint64
	for i := 0; i < b.N; i++ {
		for j, rz := range sizes {
			r := rz
			w, err := world.Build(world.Spec{
				Pass: prog.RESTHeap(64), Mode: core.Secure, RedzoneBytes: &r,
			}, wl.Build(benchScale))
			if err != nil {
				b.Fatal(err)
			}
			stats, out := w.RunTimed()
			if out.Err != nil || out.Detected() {
				b.Fatalf("unexpected outcome: %s", out)
			}
			res[j] = stats.Cycles
		}
	}
	for j, n := range names {
		b.ReportMetric(float64(res[j]), n)
	}
}

// --- Component microbenchmarks (simulator throughput) ---

// BenchmarkFunctionalSim measures architectural-simulation speed on the
// session default engine (the decoded-block interpreter).
func BenchmarkFunctionalSim(b *testing.B) {
	wl, _ := workload.ByName("lbm")
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		w, err := world.Build(world.Spec{Pass: prog.Plain()}, wl.Build(1))
		if err != nil {
			b.Fatal(err)
		}
		out := w.RunFunctional()
		if out.Err != nil {
			b.Fatal(out.Err)
		}
		instrs = w.Machine.UserInstrs
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// benchSimCold measures cold functional-simulation throughput under one
// engine: every iteration builds a fresh world, so the block engine pays
// its full decode cost inside the timed region (there is no warm cache to
// hide behind — this is the honest end-to-end comparison).
func benchSimCold(b *testing.B, e sim.Engine) {
	wl, _ := workload.ByName("lbm")
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		w, err := world.Build(world.Spec{Pass: prog.Plain(), Engine: e}, wl.Build(1))
		if err != nil {
			b.Fatal(err)
		}
		out := w.RunFunctional()
		if out.Err != nil {
			b.Fatal(out.Err)
		}
		instrs = w.Machine.UserInstrs
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkSimColdInstrsPerSecRef is the single-step reference interpreter's
// cold throughput; its Blocks twin below is the engine A/B. The timing is
// reported, not gated: TestBlockEngineDispatchCount pins what the speedup
// rests on as counts.
func BenchmarkSimColdInstrsPerSecRef(b *testing.B) { benchSimCold(b, sim.EngineRef) }

// BenchmarkSimColdInstrsPerSecBlocks is the decoded-block engine's cold
// throughput: basic-block cache, pre-resolved handlers, untraced dispatch.
func BenchmarkSimColdInstrsPerSecBlocks(b *testing.B) { benchSimCold(b, sim.EngineBlocks) }

// TestBlockEngineDispatchCount pins, deterministically, what the
// decoded-block engine's lead over the reference interpreter rests on: the
// per-instruction fetch, decode and dispatch of the reference engine become
// one block lookup per straight-line run, and each block is decoded once.
// Counts, not a timed ratio: the measured lead swings with host load.
func TestBlockEngineDispatchCount(t *testing.T) {
	wl, _ := workload.ByName("lbm")
	reg := obs.NewRegistry()
	w, err := world.Build(world.Spec{Pass: prog.Plain(), Engine: sim.EngineBlocks, Obs: reg}, wl.Build(benchScale))
	if err != nil {
		t.Fatal(err)
	}
	if out := w.RunFunctional(); out.Err != nil {
		t.Fatal(out.Err)
	}
	got := map[string]uint64{}
	for _, m := range reg.Snapshot() {
		got[m.Name] = m.Value
	}
	instrs := w.Machine.UserInstrs
	hits, misses := got["sim.blockcache.hits"], got["sim.blockcache.misses"]
	dispatches := hits + misses
	t.Logf("lbm scale %d: %d user instructions, %d block dispatches (%d hits, %d misses), %d decoded bytes",
		benchScale, instrs, dispatches, hits, misses, got["sim.blockcache.decoded_bytes"])
	// Every dispatch pays the lookup and dispatch overhead the reference
	// engine pays per instruction. At five or more instructions a dispatch
	// (6.2 when this was written) that overhead is cut at least fivefold; a
	// block splitter that ended blocks early would show here first.
	if dispatches == 0 || dispatches > instrs/5 {
		t.Errorf("%d block dispatches for %d instructions, want at most one per 5", dispatches, instrs)
	}
	// A miss decodes a block, and lbm never writes its code, so each miss is
	// the first visit of a distinct block entry: a fixed handful (18 when
	// this was written) however long the run. A cache that stopped keeping
	// its blocks would decode on every dispatch.
	if misses == 0 || misses > 64 {
		t.Errorf("%d block cache misses, want 1..64 (one per distinct block entry)", misses)
	}
}

// BenchmarkWorldConstruct measures world construction alone — program
// build, image encode, allocator/runtime/tracker wiring and the mem slab
// arena — the per-cell setup cost every sweep pays before its first
// simulated instruction.
func BenchmarkWorldConstruct(b *testing.B) {
	wl, _ := workload.ByName("lbm")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := world.Build(world.Spec{Pass: prog.RESTFull(64), Mode: core.Secure}, wl.Build(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimingSim measures full pipeline+cache simulation speed.
func BenchmarkTimingSim(b *testing.B) {
	wl, _ := workload.ByName("lbm")
	b.ReportAllocs()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		w, err := world.Build(world.Spec{Pass: prog.Plain()}, wl.Build(1))
		if err != nil {
			b.Fatal(err)
		}
		stats, out := w.RunTimed()
		if out.Err != nil {
			b.Fatal(out.Err)
		}
		instrs = stats.Instructions
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkTokenDetector measures the fill-time content detector.
func BenchmarkTokenDetector(b *testing.B) {
	w, err := rest.NewSystem(rest.RESTHeap(64), rest.Secure, func(bb *rest.ProgramBuilder) {
		f := bb.Func("main")
		p := f.Reg()
		f.CallMallocI(p, 4096)
	})
	if err != nil {
		b.Fatal(err)
	}
	w.RunFunctional()
	tr := w.Tracker
	tr.Arm(0x3000_0000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.LineTokenMask(0x3000_0000) == 0 {
			b.Fatal("detector missed the token")
		}
	}
}

// BenchmarkArmDisarm measures the architectural arm/disarm pair.
func BenchmarkArmDisarm(b *testing.B) {
	w, err := rest.NewSystem(rest.RESTHeap(64), rest.Secure, func(bb *rest.ProgramBuilder) {
		bb.Func("main")
	})
	if err != nil {
		b.Fatal(err)
	}
	tr := w.Tracker
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if exc := tr.Arm(0x3000_0000, 0); exc != nil {
			b.Fatal(exc)
		}
		if exc := tr.Disarm(0x3000_0000, 0); exc != nil {
			b.Fatal(exc)
		}
	}
}

// BenchmarkTAGE measures branch predictor throughput on a periodic pattern.
func BenchmarkTAGE(b *testing.B) {
	p := bpred.New(bpred.Config{})
	pat := []bool{true, true, false, true, false, false, true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Resolve(0x400000, isa.OpBeq, pat[i%len(pat)], 0x400400, 0x400010)
	}
	b.ReportMetric(100*p.Accuracy(), "accuracy-%")
}

// BenchmarkPipelineThroughput measures raw timing-model speed on a
// synthetic independent-ALU stream.
func BenchmarkPipelineThroughput(b *testing.B) {
	entries := make([]trace.Entry, 100_000)
	for i := range entries {
		entries[i] = trace.Entry{
			PC: 0x400000 + uint64(i%64)*16, Op: isa.OpAddI,
			Dst: uint8(1 + i%16), Src1: isa.NoReg, Src2: isa.NoReg,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, err := cache.NewHierarchy(cache.DefaultHierConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		p := cpu.New(cpu.DefaultConfig(), h, bpred.New(bpred.Config{}))
		b.StartTimer()
		st := p.Run(trace.NewSliceReader(entries))
		if st.Instructions != 100_000 {
			b.Fatal("short run")
		}
	}
	b.ReportMetric(float64(100_000*b.N)/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkInOrderVsOoO contrasts the two core models on one workload
// (Figure 3 uses the in-order core; Figures 7/8 the out-of-order core).
func BenchmarkInOrderVsOoO(b *testing.B) {
	wl, _ := workload.ByName("hmmer")
	var inCycles, ooCycles uint64
	for i := 0; i < b.N; i++ {
		run := func(inorder bool) uint64 {
			w, err := world.Build(world.Spec{Pass: prog.Plain(), InOrder: inorder}, wl.Build(1))
			if err != nil {
				b.Fatal(err)
			}
			stats, out := w.RunTimed()
			if out.Err != nil {
				b.Fatal(out.Err)
			}
			return stats.Cycles
		}
		inCycles = run(true)
		ooCycles = run(false)
	}
	b.ReportMetric(float64(inCycles), "inorder-cycles")
	b.ReportMetric(float64(ooCycles), "ooo-cycles")
	b.ReportMetric(float64(inCycles)/float64(ooCycles), "ooo-speedup")
}

// BenchmarkCoherenceTokenMigration measures cross-core token detection: an
// arm on core 0 followed by a faulting access on core 1, through the
// MSI-coherent two-core hierarchy.
func BenchmarkCoherenceTokenMigration(b *testing.B) {
	tok := &benchTokens{masks: map[uint64]uint8{}}
	mh, err := cache.NewMultiHierarchy(2, cache.DefaultHierConfig(), tok)
	if err != nil {
		b.Fatal(err)
	}
	now := uint64(0)
	detected := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := 0x2000_0000 + uint64(i%4096)*64
		mh.Cores[0].L1D.Arm(now, line)
		tok.masks[line&^63] = 1
		now += 50
		if mh.Cores[1].L1D.Load(now, line, 8).TokenHit {
			detected++
		}
		now += 50
		delete(tok.masks, line&^63)
		mh.Cores[1].L1D.Disarm(now, line)
		now += 50
	}
	if detected != b.N {
		b.Fatalf("cross-core detection %d/%d", detected, b.N)
	}
}

type benchTokens struct{ masks map[uint64]uint8 }

func (t *benchTokens) LineTokenMask(lineAddr uint64) uint8 { return t.masks[lineAddr&^63] }
func (t *benchTokens) ChunksPerLine() int                  { return 1 }
