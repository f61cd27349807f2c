// The -cache-serve and -cache-url surfaces: a standalone result-store server
// and the client that dials it. Elastic pool workers (-shard auto) and plain
// runs on other machines (or just other PIDs) point -cache-url at it and
// share one store: memoized cell results, unit completion markers and unit
// leases all live behind the wire protocol that internal/persist/httpstore's
// Server and Backend speak.
//
// The server is deliberately dumb — it serves whatever persist.Backend it
// wraps (here a DirBackend) and keeps the advisory lock leases; all cache
// policy (integrity, retry) stays in the clients, so a server restart loses
// nothing but in-flight leases, and even those degrade to the lock files'
// mtime-based recovery.
package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rest/internal/persist"
	"rest/internal/persist/httpstore"
)

// runCacheServe binds addr and serves the artifact store under dir until
// SIGINT/SIGTERM. The resolved address (usable even for ":0" specs) and an
// attach hint print to stderr; stdout stays empty, matching every other
// mode's "reports only" contract.
func runCacheServe(addr, dir string, stderr io.Writer) error {
	b, err := persist.NewDirBackend(dir, false)
	if err != nil {
		return fmt.Errorf("restnet: -cache-serve: %w", err)
	}
	mux := http.NewServeMux()
	httpstore.NewServer(b).Register(mux)
	ln, err := listen("cache-serve", addr, mux, stderr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(stderr, "serving artifact cache %s on http://%s/cache/v1/ (attach with: restnet -cache-url http://%s ...)\n",
		dir, ln.Addr(), ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(stop)
	sig := <-stop
	fmt.Fprintf(stderr, "cache-serve: %s, shutting down\n", sig)
	return nil
}

// dial opens the -cache-serve server at url as a raw store backend. A short
// -cache-stale-age (fast recovery from killed workers) only works if live
// holders renew their leases well inside that window, so the renew period
// is tied to it.
func dial(url string, staleAge time.Duration) (persist.Backend, error) {
	var opt httpstore.Options
	if staleAge > 0 && staleAge/4 < httpstore.DefaultLockRenew {
		opt.RenewEvery = staleAge / 4
	}
	return httpstore.NewBackend(url, opt)
}
