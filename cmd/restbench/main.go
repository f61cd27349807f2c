// Command restbench regenerates every table and figure of the paper's
// evaluation section (§VI), plus the §V fault-injection campaign:
//
//	restbench -fig3          ASan overhead component breakdown
//	restbench -fig7          REST vs ASan overheads, all modes and scopes
//	restbench -fig8          token-width sweep (16/32/64B)
//	restbench -fig8sens      Figure 8 timing-sensitivity sweep (ports, L2
//	                         latency, in-order core)
//	restbench -table1        REST semantics conformance matrix
//	restbench -table2        simulated hardware configuration
//	restbench -table3        qualitative hardware-scheme comparison
//	restbench -stats         §VI-B microarchitectural statistics
//	restbench -faults        §V fault-injection campaign
//	restbench -all           everything
//
// Use -scale to lengthen the runs and -csv to emit machine-readable output.
//
// The experiment grids (-fig3/-fig7/-fig8, and the two -stats cells) run on
// the harness's parallel sweep engine. -j N sets the worker-pool size
// (default: GOMAXPROCS, i.e. all cores); every cell is a fully
// self-contained simulation, so the reports are guaranteed byte-identical
// at any -j — only the wall clock changes, roughly by min(j, cells, cores)
// on an otherwise idle machine. Each sweep prints its elapsed time and
// worker count to stderr, keeping stdout identical across -j values.
//
// Robustness controls:
//
//	-timeout D       wall-clock deadline for the whole invocation; cells
//	                 still running when it expires are cut loose by the
//	                 per-cell watchdog and reported as holes
//	-cell-timeout D  per-cell wall-clock watchdog
//	-cell-budget N   per-cell simulated-instruction budget (0 = sim default)
//	-keep-going      print partial reports with annotated holes and exit 0
//	                 when cells fail; without it any failed cell exits 1
//	-seed N          seed for the -faults campaign (same seed, same report)
//
// Performance controls:
//
//	-engine E        functional simulator engine: "blocks" (decoded
//	                 basic-block cache with threaded dispatch, the
//	                 default), "ref" (the single-step reference
//	                 interpreter), or "auto" (currently blocks). Reports
//	                 are byte-identical across engines — the engine
//	                 differential tests pin that — so the flag only moves
//	                 wall-clock time
//	-trace-cache     capture each unique dynamic trace once and replay it
//	                 for sweep cells that differ only in timing knobs
//	                 (on by default; reports are byte-identical either way —
//	                 the replay differential tests pin that). Cache hit/miss
//	                 counts print to stderr after the sweeps.
//	-cache-dir DIR   persistent result store: every clean sweep cell's
//	                 stats are stored under DIR (161 bytes each) and reused
//	                 by later invocations, making repeated sweeps
//	                 incremental; -stats cells need a live world, so they
//	                 always recompute. Reports are byte-identical cold, warm
//	                 or without a store; a corrupt or version-skewed file
//	                 silently degrades to recompute-and-rewrite. Store
//	                 activity prints to stderr after the sweeps. A traces/
//	                 directory or manifest.json left by older builds is
//	                 never read and is safe to delete
//	-cache-ro        read-only mode: reuse what is stored, write nothing
//	                 (the directory must already exist)
//	-cache-chaos SPEC  inject seeded storage faults around the cache backend
//	                 (drills and tests; reports stay byte-identical because
//	                 every fault degrades to recompute). SPEC is comma-
//	                 separated key=value: seed=N, rate=F (shorthand for
//	                 err/torn/corrupt/nospace/lockstall all =F), err=F,
//	                 torn=F, corrupt=F, nospace=F, latency=F, lockstall=F,
//	                 delay=DUR. Example: seed=7,rate=0.5
//
// Every store op runs under one hardening layer: up to 2 retries of a
// transient failure with exponential backoff, a circuit breaker, and, over
// -cache-url, a 30s bound on each attempt; whatever still fails degrades to
// recompute.
//
// Distributed sweeps (details in EXPERIMENTS.md): one process serves a
// cache directory, any number of -shard auto workers drain every grid into
// it, and any plain run over the same store renders reports byte-identical
// to a single-process sweep — every published cell is a result-store hit,
// anything missing just recomputes.
//
//	-cache-serve ADDR  serve the -cache-dir artifact store to other
//	                 restbench processes over HTTP until SIGINT/SIGTERM;
//	                 takes only -cache-dir
//	-cache-url URL   use a -cache-serve server as the persistent cache
//	                 instead of a local directory; the hardening layer,
//	                 -cache-chaos and fail-open locks apply to the network
//	                 exactly as they do to disk
//	-shard auto      join an elastic work-stealing pool: claim
//	                 functional-identity units under renewed leases on the
//	                 shared store, publish the artifacts, steal expired
//	                 leases from killed or stalled workers, and exit when
//	                 the grid drains; stdout stays empty. Any number of
//	                 workers may join or die mid-sweep
//	-cache-stale-age D  age past which an abandoned elastic claim or lease
//	                 (a crashed worker's) is considered dead and stolen
//	                 (default 10m; CI drills shrink it)
//
// Observability controls (all off by default; none of them perturbs stdout,
// so reports stay byte-identical with or without them):
//
//	-metrics FILE    write the sweeps' aggregated metric registries (CSV, or
//	                 JSON when FILE ends in .json); holes are annotated rows
//	-trace FILE      write a Chrome/Catapult JSON timeline of the sweeps'
//	                 cells (one track per worker; open in chrome://tracing
//	                 or https://ui.perfetto.dev)
//	-progress        live cells-done/holes/ETA meter on stderr (with cache
//	                 hit rate once any cache tier is consulted)
//	-pprof ADDR      serve net/http/pprof and expvar on ADDR; /debug/vars
//	                 carries build identity, live sweep progress and the
//	                 latest metric snapshot under the "rest" key, and the
//	                 OTLP endpoints below are mounted on the same server
//	-serve ADDR      serve OTLP-compatible telemetry on ADDR:
//	                 GET /otlp/metrics is a live snapshot document,
//	                 GET /otlp/stream a NDJSON (or ?sse=1) feed of per-cell
//	                 spans plus periodic metric snapshots. Subscribers are
//	                 buffered and dropped-from, never blocked on, so a
//	                 stalled collector cannot slow the sweep
//	-watch ADDR      attach a live terminal dashboard to another restbench
//	                 process's -serve (or -pprof) address; takes no other
//	                 flags
//	-check-otlp FILE validate a captured OTLP dump (single document, NDJSON
//	                 or SSE framing) and exit; used by CI
//	-version         print module version + VCS revision and exit
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"rest/internal/fault"
	"rest/internal/harness"
	"rest/internal/obs"
	"rest/internal/obs/otlp"
	"rest/internal/persist"
	"rest/internal/prog"
	"rest/internal/sim"
	"rest/internal/workload"
)

// cacheFlagState is the persistent-cache flag spelling under validation,
// separated from the flag package so tests can exercise every combination.
type cacheFlagState struct {
	Dir         string
	URL         string // -cache-url (HTTP backend; mutually exclusive with Dir)
	RO          bool   // -cache-ro
	TraceCache  bool   // -trace-cache (the in-memory tier the disk rides on)
	Chaos       string // -cache-chaos spec (empty = no chaos)
	StaleAge    time.Duration
	StaleAgeSet bool   // -cache-stale-age given explicitly
	Shard       string // -shard spec: empty, or "auto" for the elastic pool
}

// cacheSetup is the validated, resolved persistent-cache configuration:
// the effective store mode, the parsed chaos spec, and whether this process
// is an elastic pool worker.
type cacheSetup struct {
	Mode    string // "rw" or "ro"
	Chaos   *persist.ChaosSpec
	Elastic bool // -shard auto
}

// validateCacheFlags rejects contradictory persistent-cache spellings with
// one actionable line each, resolves the effective mode ("rw", the default,
// or "ro"), and parses the chaos spec if given.
func validateCacheFlags(s cacheFlagState) (cacheSetup, error) {
	var none cacheSetup
	if s.Dir != "" && s.URL != "" {
		return none, errors.New("restbench: -cache-dir and -cache-url are mutually exclusive; pass one store, not both")
	}
	store := s.Dir != "" || s.URL != ""
	mode := "rw"
	if s.RO {
		mode = "ro"
	}
	if !store && (s.RO || s.Chaos != "" || s.StaleAgeSet) {
		return none, errors.New("restbench: -cache-ro/-cache-chaos/-cache-stale-age configure the persistent cache; pass -cache-dir DIR or -cache-url URL to enable it")
	}
	if s.StaleAgeSet && s.StaleAge <= 0 {
		return none, fmt.Errorf("restbench: -cache-stale-age must be positive, got %v", s.StaleAge)
	}
	setup := cacheSetup{Mode: mode}
	if s.Chaos != "" {
		var err error
		if setup.Chaos, err = persist.ParseChaosSpec(s.Chaos); err != nil {
			return none, fmt.Errorf("restbench: -cache-chaos: %v", err)
		}
	}
	if store && !s.TraceCache {
		return none, errors.New("restbench: the persistent cache rides on the trace cache; drop -trace-cache=false")
	}
	if mode == "ro" && s.Dir != "" {
		fi, statErr := os.Stat(s.Dir)
		if statErr != nil || !fi.IsDir() {
			return none, fmt.Errorf("restbench: -cache-ro: cache directory %q does not exist", s.Dir)
		}
	}
	if s.Shard != "" {
		if s.Shard != "auto" {
			return none, fmt.Errorf("restbench: -shard %q: the only spelling is -shard auto (join the elastic pool)", s.Shard)
		}
		if !store || mode != "rw" {
			return none, errors.New("restbench: -shard auto publishes its artifacts to the shared store; pass -cache-dir DIR or -cache-url URL in read-write mode")
		}
		setup.Elastic = true
	}
	return setup, nil
}

// validateModeFlags enforces the contract of a flag that turns restbench
// into something other than a local sweep (-watch, -cache-serve): with mode
// set, every flag in need must be set too and nothing else may be, or the
// spelling fails with one actionable line. role says what the mode does.
// explicit holds the flag names the user actually set (flag.Visit).
func validateModeFlags(explicit map[string]bool, mode, role string, need ...string) error {
	if !explicit[mode] {
		return nil
	}
	for _, name := range need {
		if !explicit[name] {
			return fmt.Errorf("restbench: -%s needs -%s", mode, name)
		}
	}
	var bad []string
	for name := range explicit {
		if name != mode && !slices.Contains(need, name) {
			bad = append(bad, "-"+name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("restbench: -%s %s; drop %s", mode, role, strings.Join(bad, ", "))
}

func main() {
	fig3 := flag.Bool("fig3", false, "regenerate Figure 3")
	fig7 := flag.Bool("fig7", false, "regenerate Figure 7")
	fig8 := flag.Bool("fig8", false, "regenerate Figure 8")
	fig8sens := flag.Bool("fig8sens", false, "run the Figure 8 timing-sensitivity sweep")
	table1 := flag.Bool("table1", false, "run the Table I conformance matrix")
	table2 := flag.Bool("table2", false, "print Table II")
	table3 := flag.Bool("table3", false, "print Table III")
	stats := flag.Bool("stats", false, "print §VI-B microarchitectural statistics")
	faults := flag.Bool("faults", false, "run the §V fault-injection campaign")
	all := flag.Bool("all", false, "run everything")
	scale := flag.Int64("scale", 5, "workload scale factor")
	statsWL := flag.String("stats-workload", "xalanc", "workload for -stats")
	csv := flag.Bool("csv", false, "also print raw cycle matrices as CSV")
	jsonOut := flag.Bool("json", false, "also print machine-readable JSON reports")
	chart := flag.Bool("chart", false, "render Figure 7/8 as ASCII bar charts")
	variants := flag.Bool("variants", false, "expand per-input variants (Figure 7's full x-axis)")
	jobs := flag.Int("j", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	failFast := flag.Bool("failfast", false, "cancel a sweep's remaining cells on the first error")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for the whole invocation (0 = none)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell wall-clock watchdog (0 = none)")
	cellBudget := flag.Uint64("cell-budget", 0, "per-cell simulated-instruction budget (0 = sim default)")
	keepGoing := flag.Bool("keep-going", false, "report failed cells as holes and exit 0")
	engineName := flag.String("engine", "auto", "functional simulator engine: blocks (default), ref, auto")
	traceCache := flag.Bool("trace-cache", true, "capture/replay dynamic traces across timing-only config variants")
	cacheDir := flag.String("cache-dir", "", "persistent result store directory (empty = no persistent cache)")
	cacheURL := flag.String("cache-url", "", "shared artifact cache server URL (see -cache-serve; mutually exclusive with -cache-dir)")
	cacheServe := flag.String("cache-serve", "", "serve the -cache-dir artifact store to other restbench processes on this address and exit on SIGINT/SIGTERM")
	shardSpec := flag.String("shard", "", "\"auto\" joins an elastic work-stealing pool over the shared store; requires a read-write -cache-dir or -cache-url, suppresses stdout reports")
	cacheRO := flag.Bool("cache-ro", false, "persistent cache in read-only mode (directory must exist)")
	cacheChaos := flag.String("cache-chaos", "", "inject storage faults: comma-separated spec, e.g. seed=7,rate=0.5 or err=0.1,torn=0.05,delay=5ms (drill/testing)")
	cacheStaleAge := flag.Duration("cache-stale-age", 0, "age past which an abandoned elastic claim or lease is considered dead and stolen (0 = default, 10m)")
	seed := flag.Int64("seed", 42, "seed for the -faults campaign")
	only := flag.String("only", "", "substring filter for -faults scenarios")
	metricsOut := flag.String("metrics", "", "write sweep metrics to this file (CSV, or JSON if it ends in .json)")
	traceOut := flag.String("trace", "", "write a Chrome/Catapult JSON trace of the sweeps to this file")
	progress := flag.Bool("progress", false, "live cells-done/holes/ETA meter on stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof + expvar on this address (e.g. localhost:6060)")
	serveAddr := flag.String("serve", "", "serve OTLP telemetry (/otlp/metrics, /otlp/stream) on this address (e.g. localhost:7788)")
	watchAddr := flag.String("watch", "", "attach a live dashboard to another restbench's -serve/-pprof address and exit with it")
	checkOTLP := flag.String("check-otlp", "", "validate an OTLP dump file (document, NDJSON or SSE) and exit")
	version := flag.Bool("version", false, "print build/version information and exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.ReadBuild())
		return
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *checkOTLP != "" {
		raw, err := os.ReadFile(*checkOTLP)
		if err != nil {
			fmt.Fprintln(os.Stderr, "restbench: -check-otlp: "+err.Error())
			os.Exit(1)
		}
		n, err := otlp.ValidateDump(raw)
		if err != nil {
			fmt.Fprintf(os.Stderr, "restbench: -check-otlp %s: %v\n", *checkOTLP, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d valid OTLP document(s)\n", *checkOTLP, n)
		return
	}
	if err := validateModeFlags(explicit, "watch",
		"attaches to another restbench process and takes no other flags"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *watchAddr != "" {
		if err := runWatch(*watchAddr, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := validateModeFlags(explicit, "cache-serve",
		"runs a cache server for other restbench processes and takes only -cache-dir", "cache-dir"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *cacheServe != "" {
		if err := runCacheServe(*cacheServe, *cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	// Validate the cache flag combinations up front, before any sweep: a
	// contradictory spelling fails in one line here, not minutes into a run.
	setup, cerr := validateCacheFlags(cacheFlagState{
		Dir:         *cacheDir,
		URL:         *cacheURL,
		RO:          *cacheRO,
		TraceCache:  *traceCache,
		Chaos:       *cacheChaos,
		StaleAge:    *cacheStaleAge,
		StaleAgeSet: explicit["cache-stale-age"],
		Shard:       *shardSpec,
	})
	if cerr != nil {
		fmt.Fprintln(os.Stderr, cerr)
		os.Exit(2)
	}
	chaosSpec := setup.Chaos
	// An elastic worker computes its share and publishes artifacts; the
	// reports it could render would be partial, so stdout stays empty and
	// any plain run over the shared store renders the real ones.
	workerMode := setup.Elastic
	engine, eerr := sim.ParseEngine(*engineName)
	if eerr != nil {
		fmt.Fprintln(os.Stderr, "restbench: "+eerr.Error())
		os.Exit(2)
	}
	if !(*fig3 || *fig7 || *fig8 || *fig8sens || *table1 || *table2 || *table3 || *stats || *faults || *all) {
		flag.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// A typo'd -only fails here, before any sweep runs, with the list of
	// valid scenario names — not after minutes of unrelated figures.
	if *faults || *all {
		if err := fault.ValidateOnly(*only); err != nil {
			fail(err)
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := harness.ParallelOptions{
		Workers:         *jobs,
		FailFast:        *failFast,
		CellTimeout:     *cellTimeout,
		CellInstrBudget: *cellBudget,
		Engine:          engine,
		Elastic:         setup.Elastic,
	}
	// One cache for the whole invocation: grids that share functional
	// identities across sweeps (e.g. -fig8 and -fig8sens both time the
	// secure-full build) reuse each other's captures.
	var tcache *harness.TraceCache
	if *traceCache {
		tcache = harness.NewTraceCache()
		opt.TraceCache = tcache
	}
	// The persistent tier extends the sweeps across invocations with
	// memoized clean cell results (and, over -cache-url, across processes
	// and machines sharing one -cache-serve store).
	var pcache *persist.Cache
	if *cacheDir != "" || *cacheURL != "" {
		popt := persist.Options{
			ReadOnly:     setup.Mode == "ro",
			Chaos:        chaosSpec,
			StaleLockAge: *cacheStaleAge,
		}
		var err error
		if *cacheURL != "" {
			// A remote store adds network stalls the local disk never
			// sees: bound every attempt.
			popt.OpTimeout = 30 * time.Second
			// A short -cache-stale-age (fast recovery from killed
			// workers) only works if live holders renew their leases
			// well inside that window; tie the renew period to it.
			hopt := persist.HTTPOptions{}
			if *cacheStaleAge > 0 && *cacheStaleAge/4 < persist.DefaultLockRenew {
				hopt.RenewEvery = *cacheStaleAge / 4
			}
			var hb *persist.HTTPBackend
			if hb, err = persist.NewHTTPBackend(*cacheURL, hopt); err == nil {
				pcache, err = persist.OpenBackend(hb, popt)
			}
		} else {
			pcache, err = persist.Open(*cacheDir, popt)
		}
		if err != nil {
			fail(err)
		}
		tcache.AttachDisk(pcache)
		if chaosSpec != nil {
			fmt.Fprintf(os.Stderr, "disk cache: chaos injection active (%s)\n", chaosSpec)
		}
	}

	// The observability plane. All of it writes to files or stderr, never
	// stdout, so enabling any of these flags cannot perturb the reports. One
	// TelemetryExporter backs every surface (expvar, /otlp/metrics,
	// /otlp/stream, the progress meter's cache field); its span stream is
	// only attached to sweeps when an HTTP surface actually exists.
	tel := harness.NewTelemetryExporter("restbench", tcache)
	serving := *pprofAddr != "" || *serveAddr != ""
	live := tel.Live
	if *pprofAddr != "" {
		expvar.Publish("rest", expvar.Func(live.Vars))
		tel.Source().Register(http.DefaultServeMux)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving http://%s/debug/pprof/, /debug/vars and /otlp/{metrics,stream}\n", *pprofAddr)
	}
	if *serveAddr != "" {
		resolved, err := startTelemetryServer(*serveAddr, tel)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "serving http://%s/otlp/metrics and /otlp/stream (attach with: restbench -watch %s)\n",
			resolved, resolved)
	}
	var tracer *obs.Trace
	if *traceOut != "" {
		tracer = obs.NewTrace()
	}
	var reports []*harness.MetricsReport
	// sweepOpt clones the sweep options for one named sweep, attaching the
	// requested observability surfaces to its cell-event stream; the returned
	// finish hook harvests the sweep's metrics report once its matrix exists.
	sweepOpt := func(name string, cells int) (harness.ParallelOptions, func(*harness.Matrix)) {
		o := opt
		o.Metrics = *metricsOut != ""
		var meter *obs.Progress
		if *progress {
			meter = obs.NewProgress(os.Stderr, name, cells)
			meter.SetStats(tel.ProgressStats)
		}
		tel.AddSweep(name, cells)
		// The elastic summary is a pool worker's only account of the pool
		// dynamics: how many units it claimed (and how many of those were
		// steals from dead peers), how many it published, and how many it
		// abandoned to a livelier thief. CI greps the "elastic pool:" prefix.
		o.OnElastic = func(st harness.ElasticStats) {
			fmt.Fprintf(os.Stderr,
				"%s: elastic pool: claimed %d of %d units (%d stolen), %d done, %d already published, %d lease-lost, %d cells computed, %d drain waits\n",
				name, st.Claimed, st.Units, st.Steals, st.Done, st.Skipped, st.LeaseLost, st.CellsRun, st.DrainWaits)
		}
		var telOn func(harness.CellEvent)
		if serving {
			telOn = tel.OnCell(name)
		}
		if *traceOut != "" || *progress || serving {
			o.OnCell = func(ev harness.CellEvent) {
				ok := ev.Err == nil && !ev.Skipped
				meter.Observe(ok)
				if telOn != nil {
					telOn(ev)
				}
				verdict := "ok"
				switch {
				case ev.Skipped:
					verdict = "skipped"
				case ev.Err != nil:
					verdict = "hole"
				}
				tracer.Slice(ev.Worker, ev.Workload+"/"+ev.Config, name, ev.Start, ev.End,
					map[string]any{
						"workload": ev.Workload, "config": ev.Config,
						"verdict": verdict, "instrs": ev.Instrs, "cycles": ev.Cycles,
					})
			}
		}
		return o, func(m *harness.Matrix) {
			meter.Finish()
			if m == nil || !o.Metrics {
				return
			}
			if rep := m.Metrics(name); rep != nil {
				reports = append(reports, rep)
				live.SetMetrics(m.Obs.Snapshot())
			}
		}
	}
	// degraded flips when a sweep came back partial under -keep-going; the
	// holes are already annotated in the printed reports, so the process
	// still exits 0 — the campaign completed, just not every cell.
	degraded := false
	// sweepErr decides what a failed sweep means: under -keep-going a
	// *MatrixError (partial result available) is downgraded to a stderr
	// notice, anything else still aborts.
	sweepErr := func(name string, err error) {
		if err == nil {
			return
		}
		var merr *harness.MatrixError
		if *keepGoing && errors.As(err, &merr) {
			degraded = true
			fmt.Fprintf(os.Stderr, "%s: %d cells failed, %d skipped; continuing with holes\n",
				name, len(merr.Cells), merr.Skipped)
			return
		}
		fail(err)
	}
	// elapsed reports each sweep's wall clock on stderr so that stdout stays
	// byte-identical across -j values (the determinism guarantee).
	elapsed := func(name string, start time.Time) {
		fmt.Fprintf(os.Stderr, "%s: elapsed %s (j=%d)\n",
			name, time.Since(start).Round(time.Millisecond), opt.EffectiveWorkers())
	}
	// report prints one finished report to stdout — except on an elastic
	// worker, whose view of the grid is partial by construction, so stdout
	// stays empty and a plain run over the store renders the real reports.
	report := func(s string) {
		if !workerMode {
			fmt.Println(s)
		}
	}
	// Tables, -stats and -faults are not sweep grids: an elastic worker
	// claims no units of them, so they run (and print) only in plain
	// invocations.
	if workerMode && (*all || *table1 || *table2 || *table3 || *stats || *faults) {
		fmt.Fprintln(os.Stderr, "-shard auto computes sweep grids only; tables, -stats and -faults are left to a plain run over the store")
	}

	if (*all || *table2) && !workerMode {
		fmt.Println(harness.RenderTableII())
	}
	if (*all || *table1) && !workerMode {
		out, ok := harness.RunTableI()
		fmt.Println(out)
		if !ok {
			fail(fmt.Errorf("Table I conformance FAILED"))
		}
	}
	if *all || *fig3 {
		start := time.Now()
		o, finish := sweepOpt("fig3", len(workload.All())*(len(harness.Fig3Components)+1))
		r, err := harness.RunFig3Parallel(ctx, workload.All(), *scale, o)
		sweepErr("fig3", err)
		finish(r.Matrix)
		elapsed("fig3", start)
		report(r.Render())
	}
	if *all || *fig7 {
		wls := workload.All()
		if *variants {
			wls = workload.AllVariants()
		}
		start := time.Now()
		o, finish := sweepOpt("fig7", len(wls)*len(harness.Fig7Configs()))
		m, err := harness.RunMatrixParallel(ctx, wls, harness.Fig7Configs(), *scale, o)
		sweepErr("fig7", err)
		finish(m)
		elapsed("fig7", start)
		report(m.RenderOverheadTable(
			fmt.Sprintf("Figure 7: runtime overheads over plain binaries (scale %d)", *scale)))
		report("headline: " + m.Summary())
		report("")
		if *chart {
			report(m.RenderBarChart("Figure 7 (bars)", 180))
		}
		if *csv {
			report(m.CSV())
		}
		if *jsonOut {
			raw, err := m.JSON("figure7", *scale)
			if err != nil {
				fail(err)
			}
			report(string(raw))
		}
	}
	if *all || *fig8 {
		cfgs := append(harness.Fig8Configs(),
			harness.BinaryConfig{Name: "plain", Pass: prog.Plain()})
		start := time.Now()
		o, finish := sweepOpt("fig8", len(workload.All())*len(cfgs))
		m, err := harness.RunMatrixParallel(ctx, workload.All(), cfgs, *scale, o)
		sweepErr("fig8", err)
		finish(m)
		elapsed("fig8", start)
		report(m.RenderOverheadTable(
			fmt.Sprintf("Figure 8: token-width overheads, secure mode (scale %d)", *scale)))
		if *csv {
			report(m.CSV())
		}
	}
	if *all || *fig8sens {
		start := time.Now()
		o, finish := sweepOpt("fig8sens", len(workload.All())*len(harness.Fig8SensitivityConfigs()))
		m, err := harness.RunFig8Sensitivity(ctx, workload.All(), *scale, o)
		sweepErr("fig8sens", err)
		finish(m)
		elapsed("fig8sens", start)
		report(m.RenderOverheadTable(
			fmt.Sprintf("Figure 8 sensitivity: overheads under timing variants (scale %d)", *scale)))
		if *csv {
			report(m.CSV())
		}
	}
	if (*all || *stats) && !workerMode {
		wl, err := workload.ByName(*statsWL)
		if err != nil {
			fail(err)
		}
		o, finish := sweepOpt("micro", 2)
		s, err := harness.RunMicroStatsParallel(ctx, wl, *scale, o)
		if err != nil {
			fail(err)
		}
		finish(s.Matrix)
		fmt.Println(s.Render())
	}
	if (*all || *faults) && !workerMode {
		start := time.Now()
		c, err := fault.RunCampaign(fault.Options{Seed: *seed, Only: *only, Engine: engine})
		if err != nil {
			fail(err)
		}
		elapsed("faults", start)
		if *metricsOut != "" {
			reg := obs.NewRegistry()
			c.FlushObs(reg)
			reports = append(reports, &harness.MetricsReport{
				Sweep: "faults", Aggregate: reg.Snapshot(),
			})
		}
		fmt.Println(c.Render())
		if *csv {
			fmt.Println(c.CSV())
		}
		if n := c.Failures(); n > 0 {
			fail(fmt.Errorf("fault campaign: %d scenarios deviated from the paper's predicted verdicts", n))
		}
	}
	if (*all || *table3) && !workerMode {
		fmt.Println(harness.RenderTableIII())
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, reports); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "metrics: wrote %d report(s) to %s\n", len(reports), *metricsOut)
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if _, err := tracer.WriteTo(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
	}
	if tcache != nil {
		hits, misses, bypass := tcache.Counters()
		var dc *persist.Counters
		if pcache != nil {
			c := pcache.Counters()
			dc = &c
		}
		fmt.Fprint(os.Stderr, cacheSummary(hits, misses, bypass, dc))
	}
	if pcache != nil {
		c := pcache.Counters()
		if s := pcache.StackCounters(); c.Unavailable > 0 || s.Retries > 0 || s.BreakerTrips > 0 ||
			s.Timeouts > 0 || s.ChaosErrs+s.ChaosTorn+s.ChaosCorrupt+s.ChaosNoSpace > 0 {
			fmt.Fprintf(os.Stderr,
				"disk cache: %d ops degraded to recompute, %d retries (%d gave up), %d timeouts, breaker %d trips / %d fast-fails / %d recoveries, chaos injected %d errs / %d torn / %d corrupt / %d nospace\n",
				c.Unavailable, s.Retries, s.RetryGiveups, s.Timeouts,
				s.BreakerTrips, s.BreakerRejects, s.BreakerRecoveries,
				s.ChaosErrs, s.ChaosTorn, s.ChaosCorrupt, s.ChaosNoSpace)
		}
		if hc, ok := pcache.HTTPCounters(); ok {
			fmt.Fprintf(os.Stderr,
				"http cache: %d gets / %d puts / %d lists, %d lock ops (%d renews), %d transport errors, %d B in / %d B out\n",
				hc.Gets, hc.Puts, hc.Lists, hc.LockOps, hc.Renews, hc.TransportErrs, hc.BytesIn, hc.BytesOut)
		}
	}
	if degraded {
		fmt.Fprintln(os.Stderr, "some sweep cells failed; reports contain annotated holes (-keep-going)")
	}
}

// cacheSummary renders the stderr lines that account for the caches: the
// in-memory trace cache's counters and, when a store is attached (disk
// non-nil), the persistent store's. bench/restperf/parse.go reads both with
// regular expressions, so their wording is an interface that
// TestCacheSummaryMatchesRestperf pins.
func cacheSummary(replayed, captured, bypassed uint64, disk *persist.Counters) string {
	s := fmt.Sprintf("trace cache: %d replayed, %d captured, %d bypassed\n", replayed, captured, bypassed)
	if disk != nil {
		s += fmt.Sprintf("disk cache: trace store %d hits / %d misses, result store %d hits / %d misses, %d stored, %d corrupt, %d bytes written\n",
			disk.TraceHits, disk.TraceMisses, disk.ResultHits, disk.ResultMisses,
			disk.Stores, disk.Corruptions, disk.Bytes)
	}
	return s
}

// writeMetrics renders the collected sweep reports to path: an indented JSON
// array when the path ends in .json, otherwise CSV with one shared header.
func writeMetrics(path string, reports []*harness.MetricsReport) error {
	var out []byte
	if strings.HasSuffix(path, ".json") {
		raw, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		out = append(raw, '\n')
	} else {
		var b strings.Builder
		for i, r := range reports {
			csv := r.CSV()
			if i > 0 {
				// One header for the whole file; every row already carries
				// its sweep name in column one.
				if idx := strings.IndexByte(csv, '\n'); idx >= 0 {
					csv = csv[idx+1:]
				}
			}
			b.WriteString(csv)
		}
		out = []byte(b.String())
	}
	return os.WriteFile(path, out, 0o644)
}
