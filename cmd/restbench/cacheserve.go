// The -cache-serve surface: a standalone artifact-cache server. Elastic pool
// workers (-shard auto) and plain runs on other machines (or just other PIDs)
// point -cache-url at it and share one store: captured traces, memoized cell
// results, unit completion markers, and the cross-process capture locks and
// unit leases all live behind the wire protocol that internal/persist's
// CacheServer and HTTPBackend speak.
//
// The server is deliberately dumb — it serves whatever persist.Backend it
// wraps (here a DirBackend) and keeps the advisory lock leases; all cache
// policy (admission, eviction, integrity, retry) stays in the clients, so a
// server restart loses nothing but in-flight leases, and even those degrade
// to the lock files' mtime-based recovery.
package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"rest/internal/persist"
)

// runCacheServe binds addr and serves the artifact store under dir until
// SIGINT/SIGTERM. The resolved address (usable even for ":0" specs) and an
// attach hint print to stderr; stdout stays empty, matching every other
// restbench mode's "reports only" contract.
func runCacheServe(addr, dir string) error {
	b, err := persist.NewDirBackend(dir, false)
	if err != nil {
		return fmt.Errorf("restbench: -cache-serve: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("restbench: -cache-serve %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	persist.NewCacheServer(b).Register(mux)
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "cache-serve: %v\n", err)
		}
	}()
	resolved := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "serving artifact cache %s on http://%s/cache/v1/ (attach with: restbench -cache-url http://%s ...)\n",
		dir, resolved, resolved)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	sig := <-stop
	fmt.Fprintf(os.Stderr, "cache-serve: %s, shutting down\n", sig)
	ln.Close()
	return nil
}
