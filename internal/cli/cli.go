// Package cli is the command line that restbench and restnet share: the
// flag table, the mode table, the report table and the sweep loop that
// feeds every report's grid through the harness. Both commands call Run;
// restbench passes no Net, so it links none of the network stack or the
// OTLP code, and restnet passes the code behind the three flags that need
// them (-serve, -watch, -check-otlp). There is one sweep path: the two
// binaries print the same reports byte for byte.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"rest/internal/fault"
	"rest/internal/harness"
	"rest/internal/obs"
	"rest/internal/persist"
	"rest/internal/prog"
	"rest/internal/sim"
	"rest/internal/workload"
)

// Net is the network and OTLP half of the command line, which only restnet
// links. Run registers -serve, -watch and -check-otlp only when it is given
// a Net; without one (restbench) each of them fails the spelling in one
// line that names restnet.
type Net struct {
	// Serve builds the live telemetry around the invocation's trace cache,
	// with service naming its OTLP resource, and serves its /otlp/*
	// endpoints and /debug/pprof/ on addr (-serve) until the returned
	// closer is closed. The sweeps feed it through the returned Live.
	Serve func(addr, service string, tc *harness.TraceCache, stderr io.Writer) (Live, io.Closer, error)
	// Watch renders a live dashboard of the process serving addr (-watch)
	// until its stream ends.
	Watch func(addr string, stdout io.Writer) error
	// CheckOTLP validates an OTLP dump (-check-otlp: a single document,
	// NDJSON or SSE) and returns how many documents it holds.
	CheckOTLP func(raw []byte) (int, error)
}

// Live is -serve's telemetry as the sweeps feed it. It is an interface so
// that this package, which restbench links, names none of the OTLP code
// behind it.
type Live interface {
	// AddSweep announces a sweep's cell count before the sweep starts.
	AddSweep(cells int)
	// Observe takes each finished cell's span and registry; it must be safe
	// for concurrent use.
	Observe(obs.CellSpan, *obs.Registry)
}

// CacheFlags is the persistent-cache flag spelling under validation,
// separated from the flag package so every combination can be checked
// without a run.
type CacheFlags struct {
	Dir string // -cache-dir
	RO  bool   // -cache-ro
}

// CacheSetup is the validated, resolved persistent-cache configuration.
type CacheSetup struct {
	Mode string // "rw" or "ro"
}

// ValidateCacheFlags rejects contradictory persistent-cache spellings with
// one actionable line each and resolves the effective mode ("rw", the
// default, or "ro").
func ValidateCacheFlags(s CacheFlags) (CacheSetup, error) {
	var none CacheSetup
	if s.Dir == "" && s.RO {
		return none, errors.New("-cache-ro configures the persistent cache; pass -cache-dir DIR to enable it")
	}
	if !s.RO {
		return CacheSetup{Mode: "rw"}, nil
	}
	if fi, err := os.Stat(s.Dir); err != nil || !fi.IsDir() {
		return none, fmt.Errorf("-cache-ro: cache directory %q does not exist", s.Dir)
	}
	return CacheSetup{Mode: "ro"}, nil
}

// ValidateModeFlags enforces the contract of a flag that turns the command
// into something other than a local sweep (one row of Run's mode table):
// with mode set, no other flag may be, or the spelling fails with one
// actionable line. role says what the mode does. explicit holds the flag
// names the user actually set (flag.Visit).
func ValidateModeFlags(explicit map[string]bool, mode, role string) error {
	if !explicit[mode] {
		return nil
	}
	var bad []string
	for name := range explicit {
		if name != mode {
			bad = append(bad, "-"+name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("-%s %s; drop %s", mode, role, strings.Join(bad, ", "))
}

// session is one local invocation: the options its reports read, the sweep
// options every grid shares, and the surfaces its sweeps feed.
type session struct {
	ctx            context.Context
	stdout, stderr io.Writer
	opt            harness.ParallelOptions

	scale                           int64
	statsWL, only                   string
	seed                            int64
	csv, chart, variants, keepGoing bool
	progress                        bool

	// live is -serve's telemetry, nil without a server.
	live    Live
	tracer  *obs.Trace
	metrics []*harness.MetricsReport
	// degraded flips when a sweep came back partial under -keep-going; the
	// holes are already annotated in the printed reports, so the process
	// still exits 0 — the campaign completed, just not every cell.
	degraded bool
}

// out writes one finished report to stdout.
func (s *session) out(text string) { fmt.Fprintln(s.stdout, text) }

// elapsed reports a sweep's wall clock on stderr, so that stdout stays
// byte-identical across -j values (the determinism guarantee).
func (s *session) elapsed(name string, start time.Time) {
	fmt.Fprintf(s.stderr, "%s: elapsed %s (j=%d)\n",
		name, time.Since(start).Round(time.Millisecond), s.opt.EffectiveWorkers())
}

// sweep runs one named grid of cells through grid with every requested
// surface attached to its cell-event stream, then harvests its metrics
// report and prints its elapsed line. A failed sweep is fatal, except that
// under -keep-going a partial result (a *harness.MatrixError) becomes a
// stderr notice and the returned matrix carries the holes.
func (s *session) sweep(name string, cells int, grid func(harness.ParallelOptions) (*harness.Matrix, error)) (*harness.Matrix, error) {
	start := time.Now()
	o := s.opt
	var meter *obs.Progress
	if s.progress {
		meter = obs.NewProgress(s.stderr, name, cells)
		meter.SetStats(o.TraceCache.ProgressStats)
	}
	var sink func(obs.CellSpan, *obs.Registry)
	if s.live != nil {
		s.live.AddSweep(cells)
		sink = s.live.Observe
	}
	o.OnCell = harness.ObserveCells(name, meter, s.tracer, sink)
	m, err := grid(o)
	if err != nil {
		var merr *harness.MatrixError
		if !s.keepGoing || !errors.As(err, &merr) {
			return nil, err
		}
		s.degraded = true
		fmt.Fprintf(s.stderr, "%s: %d cells failed, %d skipped; continuing with holes\n",
			name, len(merr.Cells), merr.Skipped)
	}
	meter.Finish()
	if m != nil {
		if rep := m.Metrics(name); rep != nil {
			s.metrics = append(s.metrics, rep)
		}
	}
	s.elapsed(name, start)
	return m, nil
}

// report is one row of the report table: the flag that selects it and how
// it runs.
type report struct {
	flag, usage string
	run         func(*session) error
}

// reports lists every report in -all's print order.
var reports = []report{
	{"table2", "print Table II", func(s *session) error {
		s.out(harness.RenderTableII())
		return nil
	}},
	{"table1", "run the Table I conformance matrix", func(s *session) error {
		out, ok := harness.RunTableI()
		s.out(out)
		if !ok {
			return errors.New("Table I conformance FAILED")
		}
		return nil
	}},
	{"fig3", "regenerate Figure 3", func(s *session) error {
		var r *harness.Fig3Result
		_, err := s.sweep("fig3", len(workload.All())*(len(harness.Fig3Components)+1),
			func(o harness.ParallelOptions) (m *harness.Matrix, err error) {
				if r, err = harness.RunFig3Parallel(s.ctx, workload.All(), s.scale, o); r != nil {
					m = r.Matrix
				}
				return m, err
			})
		if err != nil {
			return err
		}
		s.out(r.Render())
		return nil
	}},
	{"fig7", "regenerate Figure 7", func(s *session) error {
		wls := workload.All()
		if s.variants {
			wls = workload.AllVariants()
		}
		cfgs := harness.Fig7Configs()
		m, err := s.sweep("fig7", len(wls)*len(cfgs), func(o harness.ParallelOptions) (*harness.Matrix, error) {
			return harness.RunMatrixParallel(s.ctx, wls, cfgs, s.scale, o)
		})
		if err != nil {
			return err
		}
		s.out(m.RenderOverheadTable(
			fmt.Sprintf("Figure 7: runtime overheads over plain binaries (scale %d)", s.scale)))
		s.out("headline: " + m.Summary())
		s.out("")
		if s.chart {
			s.out(m.RenderBarChart("Figure 7 (bars)", 180))
		}
		if s.csv {
			s.out(m.CSV())
		}
		return nil
	}},
	{"fig8", "regenerate Figure 8", func(s *session) error {
		cfgs := append(harness.Fig8Configs(), harness.BinaryConfig{Name: "plain", Pass: prog.Plain()})
		m, err := s.sweep("fig8", len(workload.All())*len(cfgs), func(o harness.ParallelOptions) (*harness.Matrix, error) {
			return harness.RunMatrixParallel(s.ctx, workload.All(), cfgs, s.scale, o)
		})
		if err != nil {
			return err
		}
		s.out(m.RenderOverheadTable(
			fmt.Sprintf("Figure 8: token-width overheads, secure mode (scale %d)", s.scale)))
		if s.csv {
			s.out(m.CSV())
		}
		return nil
	}},
	{"fig8sens", "run the Figure 8 timing-sensitivity sweep", func(s *session) error {
		cfgs := harness.Fig8SensitivityConfigs()
		m, err := s.sweep("fig8sens", len(workload.All())*len(cfgs), func(o harness.ParallelOptions) (*harness.Matrix, error) {
			return harness.RunMatrixParallel(s.ctx, workload.All(), cfgs, s.scale, o)
		})
		if err != nil {
			return err
		}
		s.out(m.RenderOverheadTable(
			fmt.Sprintf("Figure 8 sensitivity: overheads under timing variants (scale %d)", s.scale)))
		if s.csv {
			s.out(m.CSV())
		}
		return nil
	}},
	{"stats", "print §VI-B microarchitectural statistics", func(s *session) error {
		wl, err := workload.ByName(s.statsWL)
		if err != nil {
			return err
		}
		var ms *harness.MicroStats
		_, err = s.sweep("micro", 2, func(o harness.ParallelOptions) (*harness.Matrix, error) {
			r, err := harness.RunMicroStatsParallel(s.ctx, wl, s.scale, o)
			if r == nil {
				return nil, err
			}
			if err == nil {
				ms = r
			}
			return r.Matrix, err
		})
		// Without a complete pair of cells there are no statistics to
		// print; under -keep-going the sweep has already said so.
		if err != nil || ms == nil {
			return err
		}
		s.out(ms.Render())
		return nil
	}},
	{"faults", "run the §V fault-injection campaign", func(s *session) error {
		start := time.Now()
		c, err := fault.RunCampaign(fault.Options{Seed: s.seed, Only: s.only, Engine: s.opt.Engine})
		if err != nil {
			return err
		}
		s.elapsed("faults", start)
		if s.opt.Metrics {
			reg := obs.NewRegistry()
			c.FlushObs(reg)
			s.metrics = append(s.metrics, &harness.MetricsReport{Sweep: "faults", Aggregate: reg.Snapshot()})
		}
		s.out(c.Render())
		if s.csv {
			s.out(c.CSV())
		}
		if n := c.Failures(); n > 0 {
			return fmt.Errorf("fault campaign: %d scenarios deviated from the paper's predicted verdicts", n)
		}
		return nil
	}},
	{"table3", "print Table III", func(s *session) error {
		s.out(harness.RenderTableIII())
		return nil
	}},
}

// Run is the command named name with its arguments, output streams and
// exit status explicit: 0 on success, 1 when the work fails, 2 when the
// spelling does. nw is the network half (nil for restbench).
func Run(name string, args []string, stdout, stderr io.Writer, nw *Net) int {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	s := &session{ctx: context.Background(), stdout: stdout, stderr: stderr}
	picked := make(map[string]*bool, len(reports))
	for _, r := range reports {
		picked[r.flag] = fs.Bool(r.flag, false, r.usage)
	}
	all := fs.Bool("all", false, "run everything")
	fs.Int64Var(&s.scale, "scale", 5, "workload scale factor")
	fs.StringVar(&s.statsWL, "stats-workload", "xalanc", "workload for -stats")
	fs.BoolVar(&s.csv, "csv", false, "also print raw cycle matrices as CSV")
	fs.BoolVar(&s.chart, "chart", false, "render Figure 7/8 as ASCII bar charts")
	fs.BoolVar(&s.variants, "variants", false, "expand per-input variants (Figure 7's full x-axis)")
	fs.IntVar(&s.opt.Workers, "j", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	fs.BoolVar(&s.opt.FailFast, "failfast", false, "cancel a sweep's remaining cells on the first error")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline for the whole invocation (0 = none)")
	fs.DurationVar(&s.opt.CellTimeout, "cell-timeout", 0, "per-cell wall-clock watchdog (0 = none)")
	fs.Uint64Var(&s.opt.CellInstrBudget, "cell-budget", 0, "per-cell simulated-instruction budget (0 = sim default)")
	fs.BoolVar(&s.keepGoing, "keep-going", false, "report failed cells as holes and exit 0")
	engineName := fs.String("engine", "auto", "functional simulator engine: blocks (default), ref, auto")
	cacheDir := fs.String("cache-dir", "", "persistent result store directory (empty = no persistent cache)")
	cacheRO := fs.Bool("cache-ro", false, "persistent cache in read-only mode (directory must exist)")
	fs.Int64Var(&s.seed, "seed", 42, "seed for the -faults campaign")
	fs.StringVar(&s.only, "only", "", "substring filter for -faults scenarios")
	metricsOut := fs.String("metrics", "", "write sweep metrics to this file as CSV")
	traceOut := fs.String("trace", "", "write a Chrome/Catapult JSON trace of the sweeps to this file")
	fs.BoolVar(&s.progress, "progress", false, "live cells-done/holes/ETA meter on stderr")
	version := fs.Bool("version", false, "print build/version information and exit")
	// The flags only a Net backs, each with what it needs that restbench
	// does not link.
	var serveAddr, watchAddr, checkOTLP string
	netFlags := []struct {
		p                  *string
		name, usage, needs string
	}{
		{&serveAddr, "serve", "serve OTLP telemetry (/otlp/metrics, /otlp/stream) and net/http/pprof (/debug/pprof/) on this address (e.g. localhost:7788)", "the network stack"},
		{&watchAddr, "watch", "attach a live dashboard to another process's -serve address and exit with it", "the network stack"},
		{&checkOTLP, "check-otlp", "validate an OTLP dump file (document, NDJSON or SSE) and exit", "the OTLP validator"},
	}
	if nw != nil {
		for _, f := range netFlags {
			fs.StringVar(f.p, f.name, "", f.usage)
		}
	}
	// The flag package reports an unknown flag together with the whole
	// usage; hold that back until it is known not to be one of the Net's
	// flags, which get one line instead.
	var parseOut strings.Builder
	fs.SetOutput(&parseOut)
	err := fs.Parse(args)
	fs.SetOutput(stderr)
	if err != nil {
		if undefined, ok := strings.CutPrefix(err.Error(), "flag provided but not defined: -"); ok {
			for _, f := range netFlags {
				if f.name == undefined {
					fmt.Fprintf(stderr, "%s: -%s needs %s, which only restnet links; run restnet with the same flags\n", name, undefined, f.needs)
					return 2
				}
			}
		}
		io.WriteString(stderr, parseOut.String())
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// The mode table. A mode turns the command into something other than a
	// local sweep and takes no other flag, so a stray one fails the
	// spelling here in one line instead of being silently dropped.
	for _, m := range []struct {
		flag, role string
		on         bool
		run        func() error
	}{
		{"version", "prints the build and takes no other flags", *version, func() error {
			_, err := fmt.Fprintln(stdout, obs.ReadBuild())
			return err
		}},
		{"check-otlp", "validates an OTLP dump and takes no other flags", checkOTLP != "", func() error {
			raw, err := os.ReadFile(checkOTLP)
			if err != nil {
				return fmt.Errorf("%s: -check-otlp: %v", name, err)
			}
			n, err := nw.CheckOTLP(raw)
			if err != nil {
				return fmt.Errorf("%s: -check-otlp %s: %v", name, checkOTLP, err)
			}
			_, err = fmt.Fprintf(stdout, "%s: %d valid OTLP document(s)\n", checkOTLP, n)
			return err
		}},
		{"watch", "attaches to another process's -serve address and takes no other flags", watchAddr != "", func() error {
			return nw.Watch(watchAddr, stdout)
		}},
	} {
		if err := ValidateModeFlags(explicit, m.flag, m.role); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			return 2
		}
		if m.on {
			if err := m.run(); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			return 0
		}
	}

	// Validate every remaining spelling up front, before a store is opened
	// or a server bound: a contradictory one fails in one line here, not
	// minutes into a run.
	setup, err := ValidateCacheFlags(CacheFlags{Dir: *cacheDir, RO: *cacheRO})
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 2
	}
	if s.opt.Engine, err = sim.ParseEngine(*engineName); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 2
	}
	var selected []report
	for _, r := range reports {
		if *all || *picked[r.flag] {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// A typo'd -only fails here, before any sweep runs, with the list of
	// valid scenario names — not after minutes of unrelated figures.
	if *all || *picked["faults"] {
		if err := fault.ValidateOnly(s.only); err != nil {
			return fail(err)
		}
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		s.ctx, cancel = context.WithTimeout(s.ctx, *timeout)
		defer cancel()
	}
	s.opt.Metrics = *metricsOut != ""
	// One cache for the whole invocation. Captures are shared only within
	// a sweep, among a workload's cells of one functional identity; the
	// cache's counters and the result store span every sweep.
	tcache := harness.NewTraceCache()
	s.opt.TraceCache = tcache
	// The persistent tier extends the sweeps across invocations with
	// memoized clean cell results.
	var pcache *persist.Cache
	if *cacheDir != "" {
		if pcache, err = persist.Open(*cacheDir, persist.Options{ReadOnly: setup.Mode == "ro"}); err != nil {
			return fail(err)
		}
		tcache.AttachDisk(pcache)
	}

	// The observability plane. All of it writes to files, stderr or its
	// own HTTP connections, never stdout, so enabling any of these flags
	// cannot perturb the reports. The live telemetry behind /otlp/metrics
	// and /otlp/stream exists only under -serve; the progress meter reads
	// the trace cache's counters.
	if serveAddr != "" {
		live, srv, err := nw.Serve(serveAddr, name, tcache, stderr)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		s.live = live
	}
	if *traceOut != "" {
		s.tracer = obs.NewTrace()
	}
	for _, r := range selected {
		if err := r.run(s); err != nil {
			return fail(err)
		}
	}

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, s.metrics); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "metrics: wrote %d report(s) to %s\n", len(s.metrics), *metricsOut)
	}
	if s.tracer != nil {
		if err := writeTrace(*traceOut, s.tracer); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "trace: wrote %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
	}
	hits, misses, bypass := tcache.Counters()
	var dc *persist.Counters
	if pcache != nil {
		c := pcache.Counters()
		dc = &c
	}
	fmt.Fprint(stderr, CacheSummary(hits, misses, bypass, dc))
	if s.degraded {
		fmt.Fprintln(stderr, "some sweep cells failed; reports contain annotated holes (-keep-going)")
	}
	return 0
}

// CacheSummary renders the stderr lines that account for the caches: the
// in-memory trace cache's counters and, when a store is attached (disk
// non-nil), the persistent store's. bench/restperf/parse.go reads both with
// regular expressions, so their wording is an interface that
// cmd/restbench's TestCacheSummaryMatchesRestperf pins.
func CacheSummary(replayed, captured, bypassed uint64, disk *persist.Counters) string {
	s := fmt.Sprintf("trace cache: %d replayed, %d captured, %d bypassed\n", replayed, captured, bypassed)
	if disk != nil {
		s += fmt.Sprintf("disk cache: trace store %d hits / %d misses, result store %d hits / %d misses, %d stored, %d corrupt, %d bytes written\n",
			disk.TraceHits, disk.TraceMisses, disk.ResultHits, disk.ResultMisses,
			disk.Stores, disk.Corruptions, disk.Bytes)
	}
	return s
}

// writeMetrics renders the collected sweep reports to path as CSV under one
// shared header; every row already carries its sweep name in column one.
func writeMetrics(path string, reports []*harness.MetricsReport) error {
	var b strings.Builder
	for i, r := range reports {
		csv := r.CSV()
		if i > 0 {
			csv = csv[strings.IndexByte(csv, '\n')+1:]
		}
		b.WriteString(csv)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// writeTrace writes the sweeps' Catapult timeline to path.
func writeTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := tr.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
