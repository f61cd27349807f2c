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
// Every sweep captures each unique dynamic trace once, on one worker, and
// replays it there for the sweep's cells that differ only in timing knobs;
// reports are byte-identical to re-executing every cell (the replay
// differential tests pin that). Cache hit/miss counts print to stderr after
// the sweeps.
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
//	-cache-dir DIR   persistent result store: every clean sweep cell's
//	                 stats are stored under DIR (161 bytes each) and reused
//	                 by later invocations, making repeated sweeps
//	                 incremental; -stats cells need a live world, so they
//	                 always recompute. Reports are byte-identical cold, warm
//	                 or without a store; a corrupt or version-skewed file
//	                 silently degrades to recompute-and-rewrite, and an
//	                 unreadable one to a recompute. Store activity prints
//	                 to stderr after the sweeps. A traces/ or locks/
//	                 directory or manifest.json left by older builds is
//	                 never read and is safe to delete
//	-cache-ro        read-only mode: reuse what is stored, write nothing
//	                 (the directory must already exist)
//
// A result is keyed by its cell's full identity, which includes the
// harness's ModelVersion, so a store filled by a build that simulated other
// numbers recomputes them instead of serving them.
//
// Observability controls (all off by default; none of them perturbs stdout,
// so reports stay byte-identical with or without them):
//
//	-metrics FILE    write the sweeps' aggregated metric registries as CSV;
//	                 holes are annotated rows
//	-trace FILE      write a Chrome/Catapult JSON timeline of the sweeps'
//	                 cells (one track per worker; open in chrome://tracing
//	                 or https://ui.perfetto.dev)
//	-progress        live cells-done/holes/ETA meter on stderr (with cache
//	                 hit rate once any cache tier is consulted)
//
// Mode (takes no other flag, and a stray one fails the spelling in one
// line):
//
//	-version         print module version + VCS revision and exit
//
// Memory: restbench runs Go's garbage collector at a 50% target (GOGC=50)
// instead of Go's default of 100. A sweep keeps about 1 MB live, so this
// halves the runtime's minimum heap goal, 4 MB, and lowers peak memory,
// for some more CPU time. GOGC set in the environment overrides the
// target (GOGC=100 restores Go's default).
//
// restbench links no network code and no OTLP code: a sweep maps the whole
// binary, so every linked byte is a resident byte. The three flags that
// need them live in restnet, which is restbench plus -serve (live OTLP
// telemetry), -watch (a dashboard attached to another process's -serve)
// and -check-otlp (validate a captured OTLP dump); given any of them,
// restbench exits 2 with one line naming restnet. The command line itself
// is internal/cli, which both commands run, so their reports are the same
// bytes.
package main

import (
	"io"
	"os"

	"rest/internal/cli"
)

func main() {
	cli.TuneGC()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is restbench: the shared command line with no network half.
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("restbench", args, stdout, stderr, nil)
}
