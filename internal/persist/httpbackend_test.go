// The HTTP storage plane's proof obligations: the client/server pair must be
// indistinguishable from a local Backend (the shared conformance suite), the
// typed error taxonomy must survive the wire in both directions, network-only
// fault classes (torn responses, mid-request disconnects, dead servers) must
// surface as transient unavailability so the hardening stack and fail-open
// lock semantics keep working, and the two network-only mechanisms — single-
// flight get coalescing and lock leases with liveness renewal — must behave.
package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newCacheServer starts a CacheServer over b and returns its base URL.
func newCacheServer(t *testing.T, b Backend) string {
	t.Helper()
	mux := http.NewServeMux()
	NewCacheServer(b).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// newHTTPBackend dials url with lease auto-renewal disabled (tests that need
// the renewer construct their own).
func newHTTPBackend(t *testing.T, url string) *HTTPBackend {
	t.Helper()
	hb, err := NewHTTPBackend(url, HTTPOptions{RenewEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return hb
}

// TestHTTPBackendConformance runs the shared Backend contract over the wire:
// a CacheServer on MemBackend must be indistinguishable from MemBackend.
func TestHTTPBackendConformance(t *testing.T) {
	t.Parallel()
	backendConformance(t, newHTTPBackend(t, newCacheServer(t, NewMemBackend())))
}

// TestHTTPBackendURLValidation pins NewHTTPBackend's argument checking and
// base-path normalization.
func TestHTTPBackendURLValidation(t *testing.T) {
	t.Parallel()
	for _, bad := range []string{"", "127.0.0.1:7070", "ftp://host", "http://", "://x"} {
		if _, err := NewHTTPBackend(bad, HTTPOptions{}); err == nil {
			t.Errorf("NewHTTPBackend(%q) should fail", bad)
		}
	}
	hb, err := NewHTTPBackend("http://127.0.0.1:7070///", HTTPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hb.base != "http://127.0.0.1:7070" {
		t.Fatalf("trailing slashes not trimmed: %q", hb.base)
	}
}

// TestHTTPBackendErrorTaxonomy pins the status↔error mapping in both
// directions: ENOSPC and lock-held cross the wire typed, and every op against
// a dead server degrades to *UnavailableError (the class the retry layer and
// the fail-open lock path act on), never to a panic or an untyped error.
func TestHTTPBackendErrorTaxonomy(t *testing.T) {
	t.Parallel()
	mb := NewMemBackend()
	mb.SetCapacity(4)
	hb := newHTTPBackend(t, newCacheServer(t, mb))

	if err := hb.Put(kindTrace, "big", []byte("way-too-large")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Put over capacity: want ErrNoSpace, got %v", err)
	}
	rel, err := hb.TryLock("held")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hb.TryLock("held"); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("second TryLock: want ErrLockHeld, got %v", err)
	}
	rel()

	// Unknown kinds are rejected by the server before touching the backend.
	if _, err := hb.Get("bogus", "x"); !IsUnavailable(err) {
		t.Fatalf("Get(bogus kind): want unavailable, got %v", err)
	}

	// A dead server: every op is transient unavailability.
	mux := http.NewServeMux()
	NewCacheServer(NewMemBackend()).Register(mux)
	dead := httptest.NewServer(mux)
	hbDead := newHTTPBackend(t, dead.URL)
	dead.Close()
	if _, err := hbDead.Get(kindTrace, "o"); !IsUnavailable(err) {
		t.Fatalf("Get(dead server): %v", err)
	}
	if err := hbDead.Put(kindTrace, "o", []byte("x")); !IsUnavailable(err) {
		t.Fatalf("Put(dead server): %v", err)
	}
	if err := hbDead.Delete(kindTrace, "o"); !IsUnavailable(err) {
		t.Fatalf("Delete(dead server): %v", err)
	}
	if _, err := hbDead.List(kindTrace); !IsUnavailable(err) {
		t.Fatalf("List(dead server): %v", err)
	}
	if _, err := hbDead.TryLock("l"); !IsUnavailable(err) {
		t.Fatalf("TryLock(dead server): %v", err)
	}
	if _, err := hbDead.LockAge("l"); !IsUnavailable(err) {
		t.Fatalf("LockAge(dead server): %v", err)
	}
	if err := hbDead.BreakLock("l"); !IsUnavailable(err) {
		t.Fatalf("BreakLock(dead server): %v", err)
	}
	if got := hbDead.Counters(); got.TransportErrs == 0 {
		t.Fatalf("transport errors not counted: %+v", got)
	}
}

// TestHTTPBackendTornResponse pins the torn-response fault class: a server
// that declares more bytes than it delivers (dying mid-body behind a
// keep-alive connection) must surface as transient unavailability, never as
// short payload bytes handed to the codec.
func TestHTTPBackendTornResponse(t *testing.T) {
	t.Parallel()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cache/v1/obj/{kind}/{name}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "4096")
		w.Write([]byte("only-these-bytes"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	hb := newHTTPBackend(t, ts.URL)
	if _, err := hb.Get(kindTrace, "o"); !IsUnavailable(err) {
		t.Fatalf("torn response: want unavailable, got %v", err)
	}
	if got := hb.Counters(); got.TransportErrs == 0 {
		t.Fatalf("torn response not counted as a transport error: %+v", got)
	}
}

// TestHTTPBackendMidRequestDisconnect pins the mid-request-disconnect fault
// class, both flavors: the connection dying after the headers (partial body)
// and dying before any response at all.
func TestHTTPBackendMidRequestDisconnect(t *testing.T) {
	t.Parallel()
	var afterHeaders atomic.Bool // the handler outlives each round's client error
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cache/v1/obj/{kind}/{name}", func(w http.ResponseWriter, r *http.Request) {
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		if afterHeaders.Load() {
			io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 512\r\n\r\npartial-body")
		}
		conn.Close()
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	hb := newHTTPBackend(t, ts.URL)

	for _, ah := range []bool{false, true} {
		afterHeaders.Store(ah)
		if _, err := hb.Get(kindTrace, "o"); !IsUnavailable(err) {
			t.Fatalf("disconnect (afterHeaders=%v): want unavailable, got %v", ah, err)
		}
	}
	if got := hb.Counters(); got.TransportErrs < 2 {
		t.Fatalf("disconnects not counted: %+v", got)
	}
}

// gatedCountBackend counts Gets and holds each one until the gate opens, so
// the coalescing test can pile followers onto a known-in-flight leader.
type gatedCountBackend struct {
	Backend
	gate chan struct{}
	mu   sync.Mutex
	gets int
}

func (g *gatedCountBackend) Get(kind, name string) ([]byte, error) {
	g.mu.Lock()
	g.gets++
	g.mu.Unlock()
	<-g.gate
	return g.Backend.Get(kind, name)
}

// TestHTTPBackendSingleFlight pins the wire-level get coalescing: N
// concurrent Gets for one object make exactly one server request, every
// caller sees the same bytes in a private slice, and the followers' wait
// time is accounted.
func TestHTTPBackendSingleFlight(t *testing.T) {
	t.Parallel()
	inner := NewMemBackend()
	payload := []byte("shared-artifact-bytes")
	if err := inner.Put(kindTrace, "obj", payload); err != nil {
		t.Fatal(err)
	}
	gc := &gatedCountBackend{Backend: inner, gate: make(chan struct{})}
	// The read-through memory cache would serve repeat gets without a wire
	// request; this test is about the wire, so it runs with the cache off.
	hb, err := NewHTTPBackend(newCacheServer(t, gc), HTTPOptions{RenewEvery: -1, ReadCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}

	const followers = 4
	results := make(chan []byte, followers+1)
	errs := make(chan error, followers+1)
	get := func() {
		got, err := hb.Get(kindTrace, "obj")
		results <- got
		errs <- err
	}
	go get() // the leader; blocks on the server-side gate
	waitFor(t, "leader in flight", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.inflight) == 1
	})
	for i := 0; i < followers; i++ {
		go get()
	}
	waitFor(t, "followers latched", func() bool {
		return hb.Counters().Coalesced == followers
	})
	close(gc.gate)

	var got [][]byte
	for i := 0; i < followers+1; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("coalesced get: %v", err)
		}
		got = append(got, <-results)
	}
	for i, g := range got {
		if !bytes.Equal(g, payload) {
			t.Fatalf("caller %d got %q", i, g)
		}
	}
	// Slices are private: scribbling on one must not alias another.
	got[0][0] ^= 0xff
	for i := 1; i < len(got); i++ {
		if !bytes.Equal(got[i], payload) {
			t.Fatalf("caller %d shares caller 0's slice", i)
		}
	}

	gc.mu.Lock()
	serverGets := gc.gets
	gc.mu.Unlock()
	if serverGets != 1 {
		t.Fatalf("server saw %d gets, want 1", serverGets)
	}
	c := hb.Counters()
	if c.Gets != 1 || c.Coalesced != followers || c.CoalescedWaitNs == 0 {
		t.Fatalf("coalescing counters: %+v", c)
	}

	// The flight is gone afterwards: the next Get goes to the wire.
	if _, err := hb.Get(kindTrace, "obj"); err != nil {
		t.Fatal(err)
	}
	if hb.Counters().Gets != 2 {
		t.Fatalf("post-flight get did not hit the wire")
	}
}

// waitFor polls cond until true or the deadline, failing the test on timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHTTPBackendLockLease pins the lease protocol: renewal keeps a live
// holder's lock young (so it is never mistaken for abandoned), a holder that
// stops renewing ages out and is stolen through the ordinary BreakLock path,
// and a late release after the steal is a harmless no-op that cannot evict
// the new holder.
func TestHTTPBackendLockLease(t *testing.T) {
	t.Parallel()
	url := newCacheServer(t, NewMemBackend())
	renewing, err := NewHTTPBackend(url, HTTPOptions{RenewEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	silent := newHTTPBackend(t, url)

	// A renewing holder stays young.
	rel, err := renewing.TryLock("alive")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	age, err := silent.LockAge("alive")
	if err != nil {
		t.Fatal(err)
	}
	if age >= 350*time.Millisecond {
		t.Fatalf("renewals did not keep the lease young: age %v", age)
	}
	if renewing.Counters().Renews == 0 {
		t.Fatalf("renewer never ran")
	}
	rel()
	if _, err := silent.LockAge("alive"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lease survived release: %v", err)
	}

	// A holder that stops renewing ages out and is stolen.
	relDead, err := silent.TryLock("abandoned")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if age, err := silent.LockAge("abandoned"); err != nil || age < 40*time.Millisecond {
		t.Fatalf("silent lease not aging: %v, %v", age, err)
	}
	if err := silent.BreakLock("abandoned"); err != nil {
		t.Fatalf("steal: %v", err)
	}
	relNew, err := silent.TryLock("abandoned")
	if err != nil {
		t.Fatalf("lock not stealable after break: %v", err)
	}
	relDead() // the presumed-dead holder's late release
	if _, err := silent.LockAge("abandoned"); err != nil {
		t.Fatalf("late release evicted the new holder's lease: %v", err)
	}
	relNew()
}

// TestCacheServerRestartLockRecovery pins the server-restart story: a lock
// file left in a DirBackend by a previous server life is visible through a
// fresh server (no lease on the books), ages by file mtime, and is breakable.
func TestCacheServerRestartLockRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	db, err := NewDirBackend(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.TryLock("leftover"); err != nil {
		t.Fatal(err) // deliberately never released: the crashed server's state
	}

	db2, err := NewDirBackend(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	hb := newHTTPBackend(t, newCacheServer(t, db2))
	if _, err := hb.TryLock("leftover"); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("leftover lock invisible through fresh server: %v", err)
	}
	if age, err := hb.LockAge("leftover"); err != nil || age < 0 {
		t.Fatalf("leftover lock age: %v, %v", age, err)
	}
	if err := hb.BreakLock("leftover"); err != nil {
		t.Fatal(err)
	}
	rel, err := hb.TryLock("leftover")
	if err != nil {
		t.Fatalf("lock not recoverable after break: %v", err)
	}
	rel()
}

// TestCacheOverHTTPBackend runs the full Cache result tier across the wire:
// store through one client, adopt and load through a second client process'
// worth of state, counters visible via HTTPCounters.
func TestCacheOverHTTPBackend(t *testing.T) {
	t.Parallel()
	url := newCacheServer(t, NewMemBackend())
	c, err := OpenBackend(newHTTPBackend(t, url), Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := SumID("http-result")
	want := &CellResult{Checksum: 0xbeef}
	if err := c.StoreResult(id, want); err != nil {
		t.Fatalf("StoreResult: %v", err)
	}
	if got, err := c.LoadResult(id); err != nil || got.Checksum != want.Checksum {
		t.Fatalf("LoadResult: %+v, %v", got, err)
	}
	if _, err := c.LoadResult(SumID("other")); !errors.Is(err, ErrMiss) {
		t.Fatalf("miss: %v", err)
	}
	if hc, ok := c.HTTPCounters(); !ok || hc.Puts == 0 || hc.Gets == 0 {
		t.Fatalf("HTTPCounters: %+v, %v", hc, ok)
	}

	// A second Cache (a fresh process) adopts the entry via List.
	c2, err := OpenBackend(newHTTPBackend(t, url), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c2.LoadResult(id); err != nil || got.Checksum != want.Checksum {
		t.Fatalf("second cache LoadResult: %+v, %v", got, err)
	}

	// A directory-backed cache reports no HTTP counters.
	cd, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cd.HTTPCounters(); ok {
		t.Fatalf("directory cache claims HTTP counters")
	}
}

// TestCacheLockFailOpenOverDeadServer pins the distributed
// no-stranded-claimant guarantee: with the cache server gone, TryClaim
// grants the claim at once — a claim with no lease behind it, which can
// never report loss — and counts the degraded op.
func TestCacheLockFailOpenOverDeadServer(t *testing.T) {
	t.Parallel()
	mux := http.NewServeMux()
	NewCacheServer(NewMemBackend()).Register(mux)
	ts := httptest.NewServer(mux)
	hb := newHTTPBackend(t, ts.URL)
	c, err := OpenBackend(hb, Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	start := time.Now()
	cl, ok := c.TryClaim("dead-server-claim")
	if !ok {
		t.Fatalf("dead lock plane must fail open to claimant")
	}
	if cl.Lost() != nil || cl.Renew() != nil {
		t.Fatalf("a fail-open claim must carry no lease")
	}
	cl.Release()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("claim stalled %v against a dead server", elapsed)
	}
	if cc := c.Counters(); cc.Unavailable == 0 {
		t.Fatalf("degraded claim not counted: %+v", cc)
	}
}

// TestHTTPBackendChaos runs the chaos injector on both sides of the wire.
// Client-side: the PR 7 injector wraps HTTPBackend under the middleware
// stack exactly as it wraps a directory. Server-side: a CacheServer over a
// chaotic backend turns injected faults into 5xx responses that come back
// typed. Neither panics; locks fail open; degraded ops are counted.
func TestHTTPBackendChaos(t *testing.T) {
	t.Parallel()

	t.Run("client-side", func(t *testing.T) {
		t.Parallel()
		hb := newHTTPBackend(t, newCacheServer(t, NewMemBackend()))
		c, err := OpenBackend(hb, Options{
			Chaos:            &ChaosSpec{Err: 1, Torn: 1, Corrupt: 1, NoSpace: 1, LockStall: 1, Delay: time.Microsecond},
			Retries:          -1,
			BreakerThreshold: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		id := SumID("chaos-over-http")
		if err := c.StoreResult(id, &CellResult{Checksum: 1}); err == nil {
			t.Fatalf("store under total chaos should fail")
		}
		if _, err := c.LoadResult(id); err == nil {
			t.Fatalf("load under total chaos should fail")
		}
		if cl, ok := c.TryClaim("chaos-over-http"); !ok {
			t.Fatalf("claim must fail open")
		} else {
			cl.Release()
		}
		s := c.StackCounters()
		if s.ChaosErrs == 0 && s.ChaosNoSpace == 0 {
			t.Fatalf("chaos injected nothing: %+v", s)
		}
	})

	t.Run("server-side", func(t *testing.T) {
		t.Parallel()
		st := &StackStats{}
		ch := NewChaos(NewMemBackend(), &ChaosSpec{Err: 0.5, NoSpace: 0.5, Seed: 11}, st)
		hb := newHTTPBackend(t, newCacheServer(t, ch))
		var sawUnavailable, sawNoSpace, sawOK bool
		for i := 0; i < 64; i++ {
			err := hb.Put(kindTrace, fmt.Sprintf("o%d", i), []byte("payload"))
			switch {
			case err == nil:
				sawOK = true
			case errors.Is(err, ErrNoSpace):
				sawNoSpace = true
			case IsUnavailable(err):
				sawUnavailable = true
			default:
				t.Fatalf("untyped error escaped the wire: %v", err)
			}
		}
		if !sawUnavailable || !sawNoSpace || !sawOK {
			t.Fatalf("fault mix not observed: unavailable=%v nospace=%v ok=%v",
				sawUnavailable, sawNoSpace, sawOK)
		}
	})
}

// TestCacheServerValidation pins the request validation that keeps a
// DirBackend-backed server inside its own directory: unknown kinds and
// malformed names are rejected with 400 before any backend call.
func TestCacheServerValidation(t *testing.T) {
	t.Parallel()
	url := newCacheServer(t, NewMemBackend())
	for _, tc := range []struct {
		method, path string
	}{
		{"GET", "/cache/v1/obj/bogus/name"},
		{"PUT", "/cache/v1/obj/locks/escape"},
		{"GET", "/cache/v1/list/bogus"},
		{"GET", "/cache/v1/obj/trace/" + "%2e%2e"},
		{"POST", "/cache/v1/lock/.hidden"},
	} {
		req, err := http.NewRequest(tc.method, url+tc.path, bytes.NewReader([]byte("x")))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", tc.method, tc.path, resp.StatusCode)
		}
	}

	// The health route answers with the service identity.
	resp, err := http.Get(url + "/cache/v1/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("rest-cache")) {
		t.Fatalf("health route: %d %q", resp.StatusCode, body)
	}
}
