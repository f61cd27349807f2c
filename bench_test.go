// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI), plus component microbenchmarks and the ablation studies DESIGN.md
// calls out. Reported custom metrics carry the paper-comparable numbers:
// overhead percentages (paper Figure 7: REST secure ≈ 2%, debug ≈ 25%,
// ASan ≈ 40%), detection lag, and simulator throughput.
//
// Run with: go test -bench=. -benchmem
package rest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
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
		m, err = harness.RunMatrix(workload.All(), harness.Fig7Configs(), benchScale)
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
		m, err = harness.RunMatrix(workload.All(), cfgs, benchScale)
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
	if _, err := harness.RunFig8Sensitivity(context.Background(), workload.All(), benchScale, opt); err != nil {
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
// the disk tiers' doing, not in-process memory) and returns the wall clock
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
	if _, err := harness.RunFig8Sensitivity(context.Background(), workload.All(), benchScale, opt); err != nil {
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

// runFig8SensitivityHTTP is runFig8SensitivityDisk's twin over the wire: the
// same sweep against a cache served by the HTTP backend instead of a local
// directory handle. The backend is a parameter, not a local, because its
// read-through memory cache is part of what the warm leg measures: a
// long-lived worker reusing one backend serves repeat object reads from
// memory instead of re-crossing the wire every sweep.
func runFig8SensitivityHTTP(tb testing.TB, hb *persist.HTTPBackend, popt persist.Options) (time.Duration, persist.Counters) {
	tb.Helper()
	pc, err := persist.OpenBackend(hb, popt)
	if err != nil {
		tb.Fatal(err)
	}
	defer pc.Close()
	tc := harness.NewTraceCache()
	tc.AttachDisk(pc)
	opt := harness.ParallelOptions{Workers: runtime.GOMAXPROCS(0), TraceCache: tc}
	start := time.Now()
	if _, err := harness.RunFig8Sensitivity(context.Background(), workload.All(), benchScale, opt); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start), pc.Counters()
}

// buildRestbench compiles the CLI once for the separate-process elastic
// pool measurements and returns the binary path.
func buildRestbench(tb testing.TB) string {
	tb.Helper()
	bin := filepath.Join(tb.TempDir(), "restbench")
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/restbench").CombinedOutput()
	if err != nil {
		tb.Fatalf("go build ./cmd/restbench: %v\n%s", err, out)
	}
	return bin
}

// runRestbenchStdout runs the CLI once and returns its report bytes.
func runRestbenchStdout(tb testing.TB, bin string, args ...string) []byte {
	tb.Helper()
	var out, errs bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errs
	if err := cmd.Run(); err != nil {
		tb.Fatalf("restbench %s: %v\n%s", strings.Join(args, " "), err, errs.Bytes())
	}
	return out.Bytes()
}

// serveCacheDir exposes dir over the cache wire protocol on a loopback
// listener and returns the URL pool workers attach to.
func serveCacheDir(tb testing.TB, dir string) string {
	tb.Helper()
	b, err := persist.NewDirBackend(dir, false)
	if err != nil {
		tb.Fatal(err)
	}
	mux := http.NewServeMux()
	persist.NewCacheServer(b).Register(mux)
	srv := httptest.NewServer(mux)
	tb.Cleanup(srv.Close)
	return srv.URL
}

// poolMeasurement names the single metric every multi-process arm in this
// file is scored with, so speedup ratios always compare like with like.
// With enough cores for the widest arm plus the cache server, every process
// truly runs in parallel and wall clock is the honest number. On smaller machines (CI
// boxes are often 1-2 cores) the wall of N concurrent CPU-bound processes
// only measures the kernel slicing one core, so every arm — including the
// single-process baseline — is instead scored by its CPU makespan: the
// largest CPU time (user+system) any surviving process consumed, which
// models the wall clock of the deployment the fan-out targets (one machine
// per worker, where lease-wait stalls park a core instead of burning it).
// Either way all processes launch concurrently and every arm is measured
// identically.
func poolMeasurement() string {
	if runtime.NumCPU() >= 5 {
		return "wall-concurrent"
	}
	return "cpu-makespan-concurrent"
}

// runProcPool launches n worker processes concurrently and scores the arm
// under poolMeasurement(). kill, when non-nil, runs while the pool works and
// returns the index of a process it terminated: that process models a
// crashed machine, so its exit status, partial CPU time, and output are all
// ignored. Surviving workers must exit clean with an empty stdout; their
// stderr is returned for summary parsing, indexed by worker.
func runProcPool(tb testing.TB, n int, mk func(k int, out, errs *bytes.Buffer) *exec.Cmd, kill func(cmds []*exec.Cmd) int) (time.Duration, []string) {
	tb.Helper()
	cmds := make([]*exec.Cmd, n)
	outs := make([]bytes.Buffer, n)
	errs := make([]bytes.Buffer, n)
	start := time.Now()
	for k := range cmds {
		cmds[k] = mk(k, &outs[k], &errs[k])
		if err := cmds[k].Start(); err != nil {
			tb.Fatal(err)
		}
	}
	killed := -1
	if kill != nil {
		killed = kill(cmds)
	}
	var cpuMax time.Duration
	var stderrs []string
	for k, cmd := range cmds {
		err := cmd.Wait()
		if k == killed {
			stderrs = append(stderrs, "")
			continue
		}
		if err != nil {
			tb.Fatalf("worker %d/%d: %v\n%s", k+1, n, err, errs[k].Bytes())
		}
		if outs[k].Len() > 0 {
			tb.Fatalf("worker %d/%d printed to stdout:\n%s", k+1, n, outs[k].Bytes())
		}
		st := cmd.ProcessState
		if c := st.UserTime() + st.SystemTime(); c > cpuMax {
			cpuMax = c
		}
		stderrs = append(stderrs, errs[k].String())
	}
	if poolMeasurement() == "wall-concurrent" {
		return time.Since(start), stderrs
	}
	return cpuMax, stderrs
}

// benchStaleAge is the lease staleness horizon elastic bench workers run
// with: long enough that a live worker (renewing at a quarter of this) is
// never mistaken for dead, short enough that a killed worker's claim is
// re-stolen well before the survivors drain their own share.
const benchStaleAge = "2s"

// runElasticPool measures an n-worker elastic cold sweep over a freshly
// served cache dir: every worker joins with -shard auto and the pool drains
// by work stealing. When killAtMarkers > 0, worker 0 is SIGKILLed as soon as
// that many unit completion markers exist in the store — mid-sweep, so the
// survivors must steal its lease and finish its share.
func runElasticPool(tb testing.TB, bin, url, dir string, n, killAtMarkers int) (time.Duration, []elasticSummary) {
	tb.Helper()
	mk := func(k int, out, errs *bytes.Buffer) *exec.Cmd {
		cmd := exec.Command(bin, "-fig8sens",
			"-scale", strconv.Itoa(benchScale), "-j", "1",
			"-shard", "auto", "-cache-url", url, "-cache-stale-age", benchStaleAge)
		cmd.Stdout, cmd.Stderr = out, errs
		return cmd
	}
	var kill func(cmds []*exec.Cmd) int
	if killAtMarkers > 0 {
		kill = func(cmds []*exec.Cmd) int {
			deadline := time.Now().Add(10 * time.Minute)
			for countElasticMarkers(tb, dir) < killAtMarkers {
				if time.Now().After(deadline) {
					tb.Fatalf("elastic pool published fewer than %d markers in 10m", killAtMarkers)
				}
				time.Sleep(20 * time.Millisecond)
			}
			if err := cmds[0].Process.Kill(); err != nil {
				tb.Fatal(err)
			}
			return 0
		}
	}
	d, stderrs := runProcPool(tb, n, mk, kill)
	var sums []elasticSummary
	for k, s := range stderrs {
		if killAtMarkers > 0 && k == 0 {
			continue
		}
		sums = append(sums, parseElasticSummary(tb, s))
	}
	return d, sums
}

// countElasticMarkers counts published unit completion markers in a served
// cache directory. Markers are meta objects, which a DirBackend keeps at the
// directory root under their literal names.
func countElasticMarkers(tb testing.TB, dir string) int {
	tb.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), harness.ElasticMarkerPrefix) {
			n++
		}
	}
	return n
}

// elasticSummary is one worker's parsed "elastic pool:" stderr line.
type elasticSummary struct {
	claimed, units, stolen, done, skipped, leaseLost, cells, waits int
}

func parseElasticSummary(tb testing.TB, stderr string) elasticSummary {
	tb.Helper()
	i := strings.Index(stderr, "elastic pool: ")
	if i < 0 {
		tb.Fatalf("no elastic pool summary in worker stderr:\n%s", stderr)
	}
	var s elasticSummary
	if _, err := fmt.Sscanf(stderr[i:],
		"elastic pool: claimed %d of %d units (%d stolen), %d done, %d already published, %d lease-lost, %d cells computed, %d drain waits",
		&s.claimed, &s.units, &s.stolen, &s.done, &s.skipped, &s.leaseLost, &s.cells, &s.waits); err != nil {
		tb.Fatalf("malformed elastic pool summary (%v):\n%s", err, stderr[i:])
	}
	return s
}

// benchJSONPath gates TestBenchJSON: `make bench-json` passes
// -bench-json=BENCH_<n>.json (one artifact per PR; see the Makefile's
// BENCH_JSON variable) to record the sweep A/Bs as committed machine-readable
// artifacts.
var benchJSONPath = flag.String("bench-json", "", "write the sweep A/B measurements to this JSON file")

// simColdRate measures cold functional throughput (fresh world per round,
// best of rounds to shed scheduler noise) for one engine, in user
// instructions per second.
func simColdRate(tb testing.TB, e sim.Engine) float64 {
	tb.Helper()
	wl, _ := workload.ByName("lbm")
	best := 0.0
	for round := 0; round < 3; round++ {
		w, err := world.Build(world.Spec{Pass: prog.Plain(), Engine: e}, wl.Build(benchScale))
		if err != nil {
			tb.Fatal(err)
		}
		start := time.Now()
		out := w.RunFunctional()
		if out.Err != nil {
			tb.Fatal(out.Err)
		}
		if rate := float64(w.Machine.UserInstrs) / time.Since(start).Seconds(); rate > best {
			best = rate
		}
	}
	return best
}

// TestBenchJSON measures the Figure 8 sensitivity sweep four ways — in-memory
// trace cache on/off (interleaved best of three rounds, to shed host noise), then
// persistent cache cold and warm — plus the interpreter A/B and the
// distributed plane (separate-process elastic pool scaling, HTTP-vs-directory
// warm tax), and writes the results to the -bench-json path. The floors
// enforced so the committed artifact can never record a regression silently:
// the warm persistent-cache sweep must come in at least 60% under the cold
// one, the decoded-block engine must deliver at least 3x the reference
// interpreter's cold throughput, the hardening middleware (retry + breaker)
// must cost under 5% on the warm path versus the bare backend, a 3-worker
// elastic pool with one worker killed halfway must finish at least 2.2x
// faster than one worker (scored under poolMeasurement), and the HTTP
// backend's warm path must stay within 50% plus a fixed wire budget of the
// local directory's. Skipped unless the flag is set.
func TestBenchJSON(t *testing.T) {
	if *benchJSONPath == "" {
		t.Skip("set -bench-json=FILE to record the sweep measurements")
	}
	refRate := simColdRate(t, sim.EngineRef)
	blkRate := simColdRate(t, sim.EngineBlocks)
	speedup := blkRate / refRate
	if speedup < 3 {
		t.Errorf("decoded-block engine only %.2fx the reference interpreter (ref=%.0f blocks=%.0f instrs/s), want >= 3x",
			speedup, refRate, blkRate)
	}
	// Interleaved best-of-three, so a host-level noise burst (this can run
	// in a single-core VM whose physical CPU is shared) cannot land on just
	// one side of the A/B; the gate then allows 5% measurement tolerance
	// while the artifact records the real reduction.
	var on, off time.Duration
	var hits, misses uint64
	for round := 0; round < 3; round++ {
		if w, h, m := runFig8Sensitivity(t, true); round == 0 || w < on {
			on, hits, misses = w, h, m
		}
		if w, _, _ := runFig8Sensitivity(t, false); round == 0 || w < off {
			off = w
		}
	}
	reduction := 100 * (1 - float64(on)/float64(off))
	if on > off+off/20 {
		t.Errorf("trace cache did not reduce sweep wall clock: on=%s off=%s (%.1f%%)", on, off, reduction)
	}

	dir := t.TempDir()
	cold, coldC := runFig8SensitivityDisk(t, dir, persist.Options{})
	warm, warmC := runFig8SensitivityDisk(t, dir, persist.Options{})
	warmReduction := 100 * (1 - float64(warm)/float64(cold))
	if warmReduction < 60 {
		t.Errorf("warm persistent-cache sweep only %.1f%% under cold (cold=%s warm=%s), want >= 60%%",
			warmReduction, cold, warm)
	}
	if warmC.ResultHits == 0 {
		t.Errorf("warm sweep never hit the result store: %+v", warmC)
	}

	// The storage fault plane's cost on the warm path: the same warm sweep
	// with the hardening stack in its default shape (retry + breaker wrapping
	// every backend op) versus with both layers disabled. A/B on an already
	// warm directory, best of two rounds each, interleaved so neither side
	// owns the quieter half of the machine. The floor is <5% overhead, with a
	// small absolute epsilon so a few milliseconds of scheduler noise on a
	// short sweep cannot fail the gate.
	bareOpt := persist.Options{Retries: -1, BreakerThreshold: -1}
	hardenedWarm, bareWarm := warm, time.Duration(0)
	for round := 0; round < 2; round++ {
		if bw, _ := runFig8SensitivityDisk(t, dir, bareOpt); round == 0 || bw < bareWarm {
			bareWarm = bw
		}
		if hw, _ := runFig8SensitivityDisk(t, dir, persist.Options{}); hw < hardenedWarm {
			hardenedWarm = hw
		}
	}
	hardeningOverhead := 100 * (float64(hardenedWarm)/float64(bareWarm) - 1)
	if hardenedWarm > bareWarm+bareWarm/20+50*time.Millisecond {
		t.Errorf("hardening stack costs %.1f%% on the warm path (bare=%s hardened=%s), want < 5%%",
			hardeningOverhead, bareWarm, hardenedWarm)
	}

	// The distributed plane, scaling leg: a 3-worker work-stealing pool over
	// a fresh store (one sweep worker per process, so parallelism comes
	// purely from the process fan-out), with worker 0 killed once half the
	// grid's unit markers are published — the survivors must steal its
	// lease, finish its share, and drain the grid without recomputing
	// anything already published. Scored against a single elastic worker
	// under the one metric poolMeasurement() names (recorded as
	// elastic_measurement in the artifact). The ideal with a clean halfway
	// kill is ~2.4x (each worker does 1/6 of the work before the kill, the
	// survivors split the remaining half), so the 2.2x floor leaves room for
	// the stolen unit's replay and scheduler noise.
	bin := buildRestbench(t)
	units := harness.UnitCount(workload.All(), harness.Fig8SensitivityConfigs(), benchScale, 0)
	solo1Dir := t.TempDir()
	elastic1, _ := runElasticPool(t, bin, serveCacheDir(t, solo1Dir), solo1Dir, 1, 0)
	elasticDir := t.TempDir()
	elasticURL := serveCacheDir(t, elasticDir)
	elastic3, sums := runElasticPool(t, bin, elasticURL, elasticDir, 3, units/2)
	elasticSpeedup := float64(elastic1) / float64(elastic3)
	if elasticSpeedup < 2.2 {
		t.Errorf("3-worker elastic sweep with a halfway kill only %.2fx one worker (1=%s 3=%s, %s), want >= 2.2x",
			elasticSpeedup, elastic1, elastic3, poolMeasurement())
	}
	if got := countElasticMarkers(t, elasticDir); got != units {
		t.Errorf("elastic pool drained with %d of %d unit markers", got, units)
	}
	var stolen int
	for _, s := range sums {
		stolen += s.stolen
	}
	if stolen == 0 {
		t.Errorf("no survivor stole the killed worker's lease: %+v", sums)
	}
	// Published-exactly-once, checked through the scheduler itself: a late
	// worker joining the drained pool must find every unit already
	// published and compute nothing.
	_, verifySums := runElasticPool(t, bin, elasticURL, elasticDir, 1, 0)
	if v := verifySums[0]; v.cells != 0 || v.done != 0 {
		t.Errorf("drained elastic grid was recomputed by a late worker: %+v", v)
	}
	// And a plain run over the pool's store must be byte-identical to a
	// single-process sweep's report.
	soloOut := runRestbenchStdout(t, bin, "-fig8sens", "-scale", strconv.Itoa(benchScale))
	mergeOut := runRestbenchStdout(t, bin, "-fig8sens", "-scale", strconv.Itoa(benchScale),
		"-cache-url", elasticURL)
	if !bytes.Equal(soloOut, mergeOut) {
		t.Errorf("elastic merge is not byte-identical to the single-process report (%d vs %d bytes)",
			len(mergeOut), len(soloOut))
	}

	// The distributed plane, wire-tax leg: the warm sweep served by the HTTP
	// backend through a loopback cache server over the directory the disk
	// A/B warmed above, versus straight off that directory. One backend is
	// shared across rounds — the long-lived-worker shape — so the first
	// sweep pays the wire for every object and warms the backend's
	// read-through memory cache, and later sweeps measure the warm path the
	// cache exists for. Before that cache, this leg ran at ~380% of the
	// directory sweep; the gate now holds it to 50% plus a small absolute
	// epsilon for the requests that still must cross the wire (manifest and
	// marker meta reads are never cached).
	httpURL := serveCacheDir(t, dir)
	hb, err := persist.NewHTTPBackend(httpURL, persist.HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	httpCold, _ := runFig8SensitivityHTTP(t, hb, persist.Options{})
	httpWarm, httpC := runFig8SensitivityHTTP(t, hb, persist.Options{})
	if h2, _ := runFig8SensitivityHTTP(t, hb, persist.Options{}); h2 < httpWarm {
		httpWarm = h2
	}
	if httpC.ResultHits == 0 {
		t.Errorf("HTTP warm sweep never hit the result store: %+v", httpC)
	}
	httpWire := hb.Counters()
	if httpWire.ReadHits == 0 {
		t.Errorf("HTTP warm sweep never hit the read-through cache: %+v", httpWire)
	}
	httpOverhead := 100 * (float64(httpWarm)/float64(hardenedWarm) - 1)
	if httpWarm > hardenedWarm+hardenedWarm/2+100*time.Millisecond {
		t.Errorf("HTTP warm sweep %s vs dir %s (+%.1f%%), want within 50%% + 100ms wire budget",
			httpWarm, hardenedWarm, httpOverhead)
	}

	// The telemetry exporter's cost on the same sweep: per-cell OTLP span
	// encoding and publication to a concurrently draining stream subscriber,
	// versus no telemetry at all. A/B interleaved, best of three rounds each
	// (host noise on a shared-CPU VM runs to a few percent of these sweeps).
	// The floor is <2% overhead with the same absolute epsilon as the
	// hardening gate — the exporter sits outside the simulation entirely, so
	// anything above that is a regression in the glue.
	teleBare, teleExport := time.Duration(0), time.Duration(0)
	for round := 0; round < 3; round++ {
		if tb := runFig8SensitivityTelemetry(t, false); round == 0 || tb < teleBare {
			teleBare = tb
		}
		if te := runFig8SensitivityTelemetry(t, true); round == 0 || te < teleExport {
			teleExport = te
		}
	}
	telemetryOverhead := 100 * (float64(teleExport)/float64(teleBare) - 1)
	if teleExport > teleBare+teleBare/50+50*time.Millisecond {
		t.Errorf("telemetry exporter costs %.1f%% on the sweep (bare=%s exported=%s), want < 2%%",
			telemetryOverhead, teleBare, teleExport)
	}

	out := struct {
		Benchmark        string  `json:"benchmark"`
		Scale            int64   `json:"scale"`
		Workers          int     `json:"workers"`
		CacheOnNs        int64   `json:"cache_on_ns"`
		CacheOffNs       int64   `json:"cache_off_ns"`
		ReductionPct     float64 `json:"reduction_pct"`
		TraceHits        uint64  `json:"trace_hits"`
		TraceMisses      uint64  `json:"trace_misses"`
		DiskColdNs       int64   `json:"disk_cold_ns"`
		DiskWarmNs       int64   `json:"disk_warm_ns"`
		DiskReductionPct float64 `json:"disk_warm_reduction_pct"`
		DiskStores       uint64  `json:"disk_cold_stores"`
		DiskResultHits   uint64  `json:"disk_warm_result_hits"`
		DiskTraceHits    uint64  `json:"disk_warm_trace_hits"`
		WarmBareNs       int64   `json:"disk_warm_bare_ns"`
		WarmHardenedNs   int64   `json:"disk_warm_hardened_ns"`
		HardeningPct     float64 `json:"hardening_overhead_pct"`
		SimRefRate       float64 `json:"sim_ref_cold_instrs_per_sec"`
		SimBlocksRate    float64 `json:"sim_blocks_cold_instrs_per_sec"`
		SimSpeedup       float64 `json:"sim_blocks_speedup"`
		TelemetryBareNs  int64   `json:"telemetry_bare_ns"`
		TelemetryOnNs    int64   `json:"telemetry_export_ns"`
		TelemetryPct     float64 `json:"telemetry_overhead_pct"`
		ElasticMeasure   string  `json:"elastic_measurement"`
		ElasticUnits     int     `json:"elastic_units"`
		Elastic1Ns       int64   `json:"elastic_cold_1worker_ns"`
		Elastic3KillNs   int64   `json:"elastic_cold_3worker_killed_ns"`
		ElasticSpeedup   float64 `json:"elastic_killed_speedup"`
		ElasticStolen    int     `json:"elastic_stolen_units"`
		HTTPColdNs       int64   `json:"http_cold_ns"`
		HTTPWarmNs       int64   `json:"http_warm_ns"`
		HTTPOverheadPct  float64 `json:"http_warm_overhead_pct"`
		HTTPResultHits   uint64  `json:"http_warm_result_hits"`
		HTTPReadHits     uint64  `json:"http_read_cache_hits"`
		HTTPReadSavedB   uint64  `json:"http_read_cache_saved_bytes"`
	}{
		Benchmark:        "Fig8SensitivityCaptureReplay",
		Scale:            benchScale,
		Workers:          runtime.GOMAXPROCS(0),
		CacheOnNs:        on.Nanoseconds(),
		CacheOffNs:       off.Nanoseconds(),
		ReductionPct:     reduction,
		TraceHits:        hits,
		TraceMisses:      misses,
		DiskColdNs:       cold.Nanoseconds(),
		DiskWarmNs:       warm.Nanoseconds(),
		DiskReductionPct: warmReduction,
		DiskStores:       coldC.Stores,
		DiskResultHits:   warmC.ResultHits,
		DiskTraceHits:    warmC.TraceHits,
		WarmBareNs:       bareWarm.Nanoseconds(),
		WarmHardenedNs:   hardenedWarm.Nanoseconds(),
		HardeningPct:     hardeningOverhead,
		SimRefRate:       refRate,
		SimBlocksRate:    blkRate,
		SimSpeedup:       speedup,
		TelemetryBareNs:  teleBare.Nanoseconds(),
		TelemetryOnNs:    teleExport.Nanoseconds(),
		TelemetryPct:     telemetryOverhead,
		ElasticMeasure:   poolMeasurement(),
		ElasticUnits:     units,
		Elastic1Ns:       elastic1.Nanoseconds(),
		Elastic3KillNs:   elastic3.Nanoseconds(),
		ElasticSpeedup:   elasticSpeedup,
		ElasticStolen:    stolen,
		HTTPColdNs:       httpCold.Nanoseconds(),
		HTTPWarmNs:       httpWarm.Nanoseconds(),
		HTTPOverheadPct:  httpOverhead,
		HTTPResultHits:   httpC.ResultHits,
		HTTPReadHits:     httpWire.ReadHits,
		HTTPReadSavedB:   httpWire.ReadSavedBytes,
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchJSONPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("mem cache on %s / off %s (%.1f%%); disk cold %s / warm %s (%.1f%%); hardening %+.1f%%; telemetry %+.1f%%; sim blocks %.2fx ref; elastic 1w %s / 3w-killed %s (%.2fx, %d stolen, %s); http warm %s (%+.1f%%, %d read hits) -> %s",
		on, off, reduction, cold, warm, warmReduction, hardeningOverhead, telemetryOverhead, speedup,
		elastic1, elastic3, elasticSpeedup, stolen, poolMeasurement(), httpWarm, httpOverhead, httpWire.ReadHits, *benchJSONPath)
}

// runFig8SensitivityTelemetry times one Figure 8 sensitivity sweep with or
// without the streaming telemetry exporter attached: per-cell span encoding
// and publication, with one subscriber draining the stream concurrently (the
// realistic -serve + attached collector shape).
func runFig8SensitivityTelemetry(tb testing.TB, export bool) time.Duration {
	tb.Helper()
	opt := harness.ParallelOptions{Workers: runtime.GOMAXPROCS(0)}
	var tel *harness.TelemetryExporter
	var sub *otlp.Subscriber
	drained := make(chan struct{})
	if export {
		tel = harness.NewTelemetryExporter("restbench", nil)
		sub = tel.Bus.Subscribe(0)
		go func() {
			for range sub.C() {
			}
			close(drained)
		}()
		opt.OnCell = tel.OnCell("fig8sens")
	}
	start := time.Now()
	if _, err := harness.RunFig8Sensitivity(context.Background(), workload.All(), benchScale, opt); err != nil {
		tb.Fatal(err)
	}
	wall := time.Since(start)
	if export {
		tel.Bus.Unsubscribe(sub)
		<-drained
	}
	return wall
}

// BenchmarkTelemetryOverhead is the exporter A/B as a standalone paired
// benchmark (the committed BENCH artifact enforces the <2% floor via
// TestBenchJSON; this reports the same delta for ad-hoc runs).
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
		s, err = harness.RunMicroStats(context.Background(), wl, benchScale)
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
// cold throughput; its Blocks twin below is the tentpole's A/B (the
// committed BENCH artifact enforces the >= 3x floor).
func BenchmarkSimColdInstrsPerSecRef(b *testing.B) { benchSimCold(b, sim.EngineRef) }

// BenchmarkSimColdInstrsPerSecBlocks is the decoded-block engine's cold
// throughput: basic-block cache, pre-resolved handlers, untraced dispatch.
func BenchmarkSimColdInstrsPerSecBlocks(b *testing.B) { benchSimCold(b, sim.EngineBlocks) }

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
