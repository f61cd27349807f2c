// Command restnet is restbench plus the four flags that need the network
// stack. Every other flag, mode and report is restbench's own (both
// commands run internal/cli), so for the same flags the two print the same
// reports byte for byte; restbench alone links no network code.
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
//	-cache-serve ADDR  a mode: serve the -cache-dir result store to other
//	                   processes over HTTP until SIGINT/SIGTERM (takes only
//	                   -cache-dir)
//	-cache-url URL     use a -cache-serve server as the persistent store
//	                   instead of a local directory; the hardening layer
//	                   (with a 30s bound on each attempt), -cache-chaos and
//	                   fail-open locks apply to the network exactly as they
//	                   do to disk, and -shard auto workers on any machine
//	                   share the server's store
//
// A distributed sweep (details in EXPERIMENTS.md): one restnet serves a
// cache directory, any number of `restnet -shard auto -cache-url URL`
// workers drain every grid into it, and any plain run over the same store
// renders reports byte-identical to a single-process sweep.
package main

import (
	"io"
	"os"

	"rest/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is restnet: the shared command line with the network half that
// serve.go, watch.go and cacheserve.go implement.
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("restnet", args, stdout, stderr, &cli.Net{
		Serve:      serve,
		Watch:      runWatch,
		CacheServe: runCacheServe,
		Dial:       dial,
	})
}
