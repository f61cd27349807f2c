// Command restperf is the repository's benchmark: it measures restbench, the
// program that regenerates the paper's evaluation, end to end and layer by
// layer, and checks every output it measures. Run it from the repository
// root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -seed 1 -out base.json     every workload, both kinds of metric
//	bash bench/run.sh -workload fig7-stream -seed 3 -seconds 10 -trace 0
//	bash bench/run.sh -compare base.json new.json [base2.json new2.json ...]
//
// Each workload runs the user's real restbench command as child processes,
// one at a time with -j min(2, nproc), for -seconds of measuring (at least
// the workload's minimum number of invocations). -trace 0 reports the
// end-to-end metrics of those invocations. -trace 1 instead measures pairs
// of untraced and restbench -trace invocations, then runs an in-process
// decomposition that times each simulator layer, and reports the per-layer
// metrics. -trace 2 (the default) does both. The last line of stdout is one JSON object:
// correct, attempted, failed and the metrics BENCHMARK.json lists for the
// mode. A wrong output makes it exit 1 without writing -out.
//
// The inputs come from the seed table in bench/suite.json, which also holds
// the stdout digest every invocation must match and the recorded baseline;
// -record rewrites both from the run. See bench/README.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == launchArg {
		os.Exit(launch(os.Args[2:]))
	}
	workloadName := flag.String("workload", "", "measure one workload (default: every workload, in BENCHMARK.json order)")
	seed := flag.Int64("seed", 1, "input seed: selects restbench's inputs from the suite's seed table")
	seconds := flag.Int("seconds", 0, "measuring time per workload (0: BENCHMARK.json's run_seconds)")
	mode := flag.Int("trace", modeBoth, "0: end-to-end metrics; 1: per-layer metrics from a traced run; 2: both")
	out := flag.String("out", "", "write the results JSON to this file")
	spansOut := flag.String("spans", filepath.Join(".bench_build", "restperf-spans.json"), "write a traced run's spans to this Catapult JSON file")
	compareMode := flag.Bool("compare", false, "compare results files in pairs of alternating runs: restperf -compare BASE.json NEW.json [BASE2.json NEW2.json ...]")
	record := flag.Bool("record", false, "write the run's stdout digests and baseline into the suite file")
	suitePath := flag.String("suite", filepath.Join("bench", "suite.json"), "the suite file")
	contractPath := flag.String("contract", "BENCHMARK.json", "the benchmark contract")
	flag.Parse()

	if *compareMode {
		os.Exit(compareFiles(os.Stdout, flag.Args()))
	}
	if *mode < modeEndToEnd || *mode > modeBoth {
		fmt.Fprintf(os.Stderr, "restperf: -trace must be 0, 1 or 2, got %d\n", *mode)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, options{
		workload: *workloadName, seed: *seed, seconds: *seconds, mode: *mode,
		out: *out, spans: *spansOut, record: *record,
		suite: *suitePath, contract: *contractPath,
	})
	stop()
	os.Exit(code)
}

type options struct {
	workload        string
	seed            int64
	seconds, mode   int
	out, spans      string
	record          bool
	suite, contract string
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "restperf: "+format+"\n", args...) }

// run measures the selected workloads and returns the exit code.
func run(ctx context.Context, o options) int {
	var contract Contract
	var suite Suite
	if err := readJSON(o.contract, &contract); err != nil {
		logf("%v", err)
		return 1
	}
	if err := readJSON(o.suite, &suite); err != nil {
		logf("%v", err)
		return 1
	}
	if err := suite.check(&contract); err != nil {
		logf("%v", err)
		return 1
	}
	todo := suite.Workloads
	if o.workload != "" {
		w, ok := suite.workload(o.workload)
		if !ok {
			logf("unknown workload %q", o.workload)
			return 2
		}
		todo = []WorkloadSpec{w}
	}
	if o.seconds == 0 {
		o.seconds = contract.RunSeconds
	}
	build := ".bench_build"
	if err := os.MkdirAll(build, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	work, err := os.MkdirTemp(build, "restperf-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(work)

	r := newRunner(ctx, &contract, &suite, suite.inputs(o.seed), filepath.Join(build, "restbench"), work, logf)
	r.budget = time.Duration(o.seconds) * time.Second
	buildStart := time.Now()
	r.spans.timed("setup.build", "", func() { err = buildRestbench(ctx, ".", r.bin) })
	if err != nil {
		logf("building restbench: %v", err)
		return 1
	}
	fmt.Printf("restperf: seed %d: scale %d, variants %v; restbench -j %d; %d cpus; built in %.3fs\n",
		o.seed, r.in.Scale, r.in.Variants, r.jobs, runtime.NumCPU(), time.Since(buildStart).Seconds())

	var defs []MetricDef
	if o.mode != modeLayers {
		defs = append(defs, contract.EndToEnd...)
	}
	if o.mode != modeEndToEnd {
		defs = append(defs, contract.PerLayer...)
	}
	results := Results{Seed: o.seed, Inputs: r.in, Jobs: r.jobs, CPUs: runtime.NumCPU()}
	for _, w := range todo {
		res, err := r.workload(w, o.mode)
		var bad *errIncorrect
		if errors.As(err, &bad) {
			logf("%v", err)
			line, _ := resultLine(false, max(1, res.Attempted), res.Failed, nil, defs)
			fmt.Println(string(line))
			return 1
		}
		if err != nil {
			logf("%v", err)
			return 1
		}
		results.Runs = append(results.Runs, *res)
		all := map[string]Metric{}
		for _, ms := range []map[string]Metric{res.EndToEnd, res.Layers} {
			for n, m := range ms {
				all[n] = m
			}
		}
		printMetrics(os.Stdout, w.Name, all)
		fmt.Printf("%-16s %-30s %14.6g ratio (%d of %d invocations failed)\n", w.Name, "fail_ratio",
			float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
		line, err := resultLine(true, res.Attempted, res.Failed, all, defs)
		if err != nil {
			logf("%v", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if err := crossCheck(results.Runs); err != nil {
		logf("%v", err)
		return 1
	}

	if o.mode != modeEndToEnd {
		if err := r.spans.writeCatapult(o.spans); err != nil {
			logf("%v", err)
			return 1
		}
		logf("wrote the spans to %s", o.spans)
	}
	if o.out != "" {
		if err := writeJSON(o.out, results); err != nil {
			logf("%v", err)
			return 1
		}
	}
	if o.record {
		recordRuns(&suite, r.in, results.Runs)
		if err := writeJSON(o.suite, suite); err != nil {
			logf("%v", err)
			return 1
		}
		logf("recorded seed %d in %s", r.in.Seed, o.suite)
	}
	return 0
}

// buildRestbench builds the cmd/restbench of the checkout at root into out.
func buildRestbench(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/restbench")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

// crossCheck enforces the equalities between workloads measured together:
// fig7-stream and fig7-store-cold run the same sweep, with and without the
// persistent store, and must print the same reports.
func crossCheck(runs []WorkloadResult) error {
	digests := map[string]string{}
	for _, r := range runs {
		digests[r.Name] = r.Digest
	}
	a, okA := digests["fig7-stream"]
	b, okB := digests["fig7-store-cold"]
	if okA && okB && a != b {
		return incorrect("fig7-stream printed %s, fig7-store-cold %s", a, b)
	}
	return nil
}

// recordRuns stores each run's digest, instruction count and end-to-end
// medians and quartiles as the suite's record for the input seed.
func recordRuns(s *Suite, in SeedInputs, runs []WorkloadResult) {
	key := strconv.FormatInt(in.Seed, 10)
	if s.Recorded == nil {
		s.Recorded = map[string]map[string]*Record{}
	}
	if s.Recorded[key] == nil {
		s.Recorded[key] = map[string]*Record{}
	}
	for _, r := range runs {
		rec := s.Recorded[key][r.Name]
		if rec == nil {
			rec = &Record{}
			s.Recorded[key][r.Name] = rec
		}
		rec.StdoutSHA256 = r.Digest
		if r.Instrs != 0 {
			rec.Instrs = r.Instrs
		}
		if r.EndToEnd != nil {
			rec.Baseline = map[string]Summary{}
			for name, m := range r.EndToEnd {
				m.Samples = nil
				rec.Baseline[name] = m.Summary
			}
		}
	}
}
