// Command restnet is restbench plus the three flags that need the network
// stack or the OTLP code. Every other flag, mode and report is restbench's
// own (both commands run internal/cli), so for the same flags the two print
// the same reports byte for byte; restbench alone links no network code and
// no OTLP code. Like restbench, it collects garbage at GOGC=50 unless GOGC
// is set.
//
//	-serve ADDR        serve OTLP-compatible telemetry on ADDR:
//	                   GET /otlp/metrics is a live snapshot document,
//	                   GET /otlp/stream a NDJSON (or ?sse=1) feed of per-cell
//	                   spans plus periodic metric snapshots. Subscribers are
//	                   buffered and dropped-from, never blocked on, so a
//	                   stalled collector cannot slow the sweep. The same
//	                   server mounts net/http/pprof under /debug/pprof/
//	-watch ADDR        a mode: attach a live terminal dashboard to another
//	                   restnet process's -serve address (takes no other
//	                   flag)
//	-check-otlp FILE   a mode: validate a captured OTLP dump (single
//	                   document, NDJSON or SSE framing) and exit non-zero
//	                   on a schema violation (takes no other flag); CI
//	                   checks -serve's captures with it
package main

import (
	"io"
	"os"

	"rest/internal/cli"
	"rest/internal/obs/otlp"
)

func main() {
	cli.TuneGC()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is restnet: the shared command line with the network half that
// serve.go and watch.go implement, and the OTLP validator.
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("restnet", args, stdout, stderr, &cli.Net{Serve: serve, Watch: runWatch, CheckOTLP: otlp.ValidateDump})
}
