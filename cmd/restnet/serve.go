// The -serve surface: the OTLP-compatible telemetry endpoints and
// net/http/pprof, on one server. Everything here is read-only with respect
// to the sweep and writes only to the HTTP connection (plus one stderr
// banner), so serving telemetry cannot perturb the reports — the telemetry
// differential tests pin that.
package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"

	"rest/internal/cli"
	"rest/internal/harness"
	"rest/internal/obs/otlp"
	"rest/internal/obs/otlp/otlphttp"
)

// startTelemetryServer serves the exporter's /otlp/* endpoints and
// /debug/pprof/ on addr until the returned listener is closed. The
// listener's Addr is the resolved address, usable in a printed URL even for
// ":0" specs.
func startTelemetryServer(addr string, tel *otlp.Exporter, stderr io.Writer) (net.Listener, error) {
	mux := http.NewServeMux()
	src := &otlphttp.Source{Service: tel.Service, Snapshot: tel.Snapshot, Bus: tel.Bus, Start: tel.Start}
	src.Register(mux)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("restnet: -serve %s: %w", addr, err)
	}
	go func() {
		if err := http.Serve(ln, mux); !errors.Is(err, net.ErrClosed) {
			fmt.Fprintf(stderr, "serve: %v\n", err)
		}
	}()
	return ln, nil
}

// serve is -serve's half of cli.Net: an exporter over the invocation's
// trace cache, its telemetry server, and a stderr banner with the resolved
// address and the command that attaches to it.
func serve(addr, service string, tc *harness.TraceCache, stderr io.Writer) (cli.Live, io.Closer, error) {
	tel := otlp.NewExporter(service, tc.RecordCounters)
	ln, err := startTelemetryServer(addr, tel, stderr)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stderr, "serving http://%s/otlp/metrics, /otlp/stream and /debug/pprof/ (attach with: restnet -watch %s)\n",
		ln.Addr(), ln.Addr())
	return tel, ln, nil
}
