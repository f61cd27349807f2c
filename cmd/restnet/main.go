// Command restnet is restbench plus the two flags that need the network
// stack. Every other flag, mode and report is restbench's own (both
// commands run internal/cli), so for the same flags the two print the same
// reports byte for byte; restbench alone links no network code. Like
// restbench, it collects garbage at GOGC=50 unless GOGC is set.
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

// run is restnet: the shared command line with the network half that
// serve.go and watch.go implement.
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("restnet", args, stdout, stderr, &cli.Net{Serve: serve, Watch: runWatch})
}
