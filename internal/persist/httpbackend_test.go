// The HTTP storage plane's proof obligations: the client/server pair must be
// indistinguishable from a local Backend (the shared conformance suite), the
// typed error taxonomy must survive the wire in both directions, network-only
// fault classes (torn responses, mid-request disconnects, dead servers) must
// surface as transient unavailability so the hardening layer and fail-open
// lock semantics keep working, and the one network-only mechanism — lock
// leases with liveness renewal — must behave.
//
// The client and server live in package httpstore, which only network builds
// link. Their tests stay here, in an external test package (httpstore imports
// persist, so persist's own test package cannot import httpstore), next to
// the shared Backend conformance suite they run over the wire.
package persist_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rest/internal/persist"
	"rest/internal/persist/httpstore"
)

// newCacheServer starts an httpstore.Server over b and returns its base URL.
func newCacheServer(t *testing.T, b persist.Backend) string {
	t.Helper()
	mux := http.NewServeMux()
	httpstore.NewServer(b).Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// newHTTPBackend dials url with lease auto-renewal disabled (tests that need
// the renewer construct their own).
func newHTTPBackend(t *testing.T, url string) *httpstore.Backend {
	t.Helper()
	hb, err := httpstore.NewBackend(url, httpstore.Options{RenewEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return hb
}

// TestHTTPBackendConformance runs the shared Backend contract over the wire:
// an httpstore.Server on MemBackend must be indistinguishable from MemBackend.
func TestHTTPBackendConformance(t *testing.T) {
	t.Parallel()
	persist.BackendConformance(t, newHTTPBackend(t, newCacheServer(t, persist.NewMemBackend())))
}

// TestHTTPBackendErrorTaxonomy pins the status↔error mapping in both
// directions: ENOSPC and lock-held cross the wire typed, and every op against
// a dead server degrades to *UnavailableError (the class the retry layer and
// the fail-open lock path act on), never to a panic or an untyped error.
func TestHTTPBackendErrorTaxonomy(t *testing.T) {
	t.Parallel()
	mb := persist.NewMemBackend()
	mb.SetCapacity(4)
	hb := newHTTPBackend(t, newCacheServer(t, mb))

	if err := hb.Put(persist.KindTrace, "big", []byte("way-too-large")); !errors.Is(err, persist.ErrNoSpace) {
		t.Fatalf("Put over capacity: want ErrNoSpace, got %v", err)
	}
	rel, err := hb.TryLock("held")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hb.TryLock("held"); !errors.Is(err, persist.ErrLockHeld) {
		t.Fatalf("second TryLock: want ErrLockHeld, got %v", err)
	}
	rel()

	// Unknown kinds are rejected by the server before touching the backend.
	if _, err := hb.Get("bogus", "x"); !persist.IsUnavailable(err) {
		t.Fatalf("Get(bogus kind): want unavailable, got %v", err)
	}

	// A dead server: every op is transient unavailability.
	mux := http.NewServeMux()
	httpstore.NewServer(persist.NewMemBackend()).Register(mux)
	dead := httptest.NewServer(mux)
	hbDead := newHTTPBackend(t, dead.URL)
	dead.Close()
	if _, err := hbDead.Get(persist.KindTrace, "o"); !persist.IsUnavailable(err) {
		t.Fatalf("Get(dead server): %v", err)
	}
	if err := hbDead.Put(persist.KindTrace, "o", []byte("x")); !persist.IsUnavailable(err) {
		t.Fatalf("Put(dead server): %v", err)
	}
	if err := hbDead.Delete(persist.KindTrace, "o"); !persist.IsUnavailable(err) {
		t.Fatalf("Delete(dead server): %v", err)
	}
	if _, err := hbDead.List(persist.KindTrace); !persist.IsUnavailable(err) {
		t.Fatalf("List(dead server): %v", err)
	}
	if _, err := hbDead.TryLock("l"); !persist.IsUnavailable(err) {
		t.Fatalf("TryLock(dead server): %v", err)
	}
	if _, err := hbDead.LockAge("l"); !persist.IsUnavailable(err) {
		t.Fatalf("LockAge(dead server): %v", err)
	}
	if err := hbDead.BreakLock("l"); !persist.IsUnavailable(err) {
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
	if _, err := hb.Get(persist.KindTrace, "o"); !persist.IsUnavailable(err) {
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
		if _, err := hb.Get(persist.KindTrace, "o"); !persist.IsUnavailable(err) {
			t.Fatalf("disconnect (afterHeaders=%v): want unavailable, got %v", ah, err)
		}
	}
	if got := hb.Counters(); got.TransportErrs < 2 {
		t.Fatalf("disconnects not counted: %+v", got)
	}
}

// TestHTTPBackendLockLease pins the lease protocol: renewal keeps a live
// holder's lock young (so it is never mistaken for abandoned), a holder that
// stops renewing ages out and is stolen through the ordinary BreakLock path,
// and a late release after the steal is a harmless no-op that cannot evict
// the new holder.
func TestHTTPBackendLockLease(t *testing.T) {
	t.Parallel()
	url := newCacheServer(t, persist.NewMemBackend())
	renewing, err := httpstore.NewBackend(url, httpstore.Options{RenewEvery: 10 * time.Millisecond})
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
	if _, err := silent.LockAge("alive"); !errors.Is(err, persist.ErrNotFound) {
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
	db, err := persist.NewDirBackend(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.TryLock("leftover"); err != nil {
		t.Fatal(err) // deliberately never released: the crashed server's state
	}

	db2, err := persist.NewDirBackend(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	hb := newHTTPBackend(t, newCacheServer(t, db2))
	if _, err := hb.TryLock("leftover"); !errors.Is(err, persist.ErrLockHeld) {
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
	url := newCacheServer(t, persist.NewMemBackend())
	c, err := persist.OpenBackend(newHTTPBackend(t, url), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := persist.SumID("http-result")
	want := &persist.CellResult{Checksum: 0xbeef}
	if err := c.StoreResult(id, want); err != nil {
		t.Fatalf("StoreResult: %v", err)
	}
	if got, err := c.LoadResult(id); err != nil || got.Checksum != want.Checksum {
		t.Fatalf("LoadResult: %+v, %v", got, err)
	}
	if _, err := c.LoadResult(persist.SumID("other")); !errors.Is(err, persist.ErrMiss) {
		t.Fatalf("miss: %v", err)
	}
	if hc, ok := c.HTTPCounters(); !ok || hc.Puts == 0 || hc.Gets == 0 {
		t.Fatalf("HTTPCounters: %+v, %v", hc, ok)
	}

	// A second Cache (a fresh process) adopts the entry via List.
	c2, err := persist.OpenBackend(newHTTPBackend(t, url), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c2.LoadResult(id); err != nil || got.Checksum != want.Checksum {
		t.Fatalf("second cache LoadResult: %+v, %v", got, err)
	}

	// A directory-backed cache reports no HTTP counters.
	cd, err := persist.Open(t.TempDir(), persist.Options{})
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
	httpstore.NewServer(persist.NewMemBackend()).Register(mux)
	ts := httptest.NewServer(mux)
	hb := newHTTPBackend(t, ts.URL)
	c, err := persist.OpenBackend(hb, persist.Options{Retries: -1})
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
// Client-side: the injector wraps httpstore.Backend under the hardening layer
// exactly as it wraps a directory. Server-side: an httpstore.Server over a
// chaotic backend turns injected faults into 5xx responses that come back
// typed. Neither panics; locks fail open; degraded ops are counted.
func TestHTTPBackendChaos(t *testing.T) {
	t.Parallel()

	t.Run("client-side", func(t *testing.T) {
		t.Parallel()
		hb := newHTTPBackend(t, newCacheServer(t, persist.NewMemBackend()))
		c, err := persist.OpenBackend(hb, persist.Options{
			Chaos:            &persist.ChaosSpec{Err: 1, Torn: 1, Corrupt: 1, NoSpace: 1, LockStall: 1, Delay: time.Microsecond},
			Retries:          -1,
			BreakerThreshold: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		id := persist.SumID("chaos-over-http")
		if err := c.StoreResult(id, &persist.CellResult{Checksum: 1}); err == nil {
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
		st := &persist.StackStats{}
		ch := persist.NewChaos(persist.NewMemBackend(), &persist.ChaosSpec{Err: 0.5, NoSpace: 0.5, Seed: 11}, st)
		hb := newHTTPBackend(t, newCacheServer(t, ch))
		var sawUnavailable, sawNoSpace, sawOK bool
		for i := 0; i < 64; i++ {
			err := hb.Put(persist.KindTrace, fmt.Sprintf("o%d", i), []byte("payload"))
			switch {
			case err == nil:
				sawOK = true
			case errors.Is(err, persist.ErrNoSpace):
				sawNoSpace = true
			case persist.IsUnavailable(err):
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
	url := newCacheServer(t, persist.NewMemBackend())
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

// TestCacheServerEpoch pins what moves the epoch: meta puts, lock grants and
// lock releases bump it; artifact traffic (trace/result puts, gets, lists)
// does not — bulk transfers must not wake parked workers.
func TestCacheServerEpoch(t *testing.T) {
	t.Parallel()
	hb := newHTTPBackend(t, newCacheServer(t, persist.NewMemBackend()))

	epoch := func() uint64 {
		t.Helper()
		e, err := hb.EpochWait(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e0 := epoch()

	if err := hb.Put(persist.KindTrace, "t1", []byte("bulk")); err != nil {
		t.Fatal(err)
	}
	if err := hb.Put(persist.KindResult, "r1", []byte("bulk")); err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Get(persist.KindTrace, "t1"); err != nil {
		t.Fatal(err)
	}
	if got := epoch(); got != e0 {
		t.Fatalf("artifact traffic moved the epoch: %d -> %d", e0, got)
	}

	if err := hb.Put(persist.KindMeta, "marker-1", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	e1 := epoch()
	if e1 <= e0 {
		t.Fatalf("meta put did not bump the epoch: %d -> %d", e0, e1)
	}
	rel, err := hb.TryLock("claim-1")
	if err != nil {
		t.Fatal(err)
	}
	e2 := epoch()
	if e2 <= e1 {
		t.Fatalf("lock grant did not bump the epoch: %d -> %d", e1, e2)
	}
	rel()
	if e3 := epoch(); e3 <= e2 {
		t.Fatalf("lock release did not bump the epoch: %d -> %d", e2, e3)
	}
}

// TestCacheServerEpochLongPoll pins the park-and-wake behavior: a waiter
// behind the current epoch returns immediately, a waiter at the current
// epoch parks until a scheduling event, and a bounded wait expires on its
// own rather than hanging.
func TestCacheServerEpochLongPoll(t *testing.T) {
	t.Parallel()
	hb := newHTTPBackend(t, newCacheServer(t, persist.NewMemBackend()))

	if err := hb.Put(persist.KindMeta, "m0", []byte("x")); err != nil {
		t.Fatal(err)
	}
	cur, err := hb.EpochWait(0, 0)
	if err != nil || cur == 0 {
		t.Fatalf("current epoch: %d, %v", cur, err)
	}

	// Behind: returns without waiting.
	start := time.Now()
	if e, err := hb.EpochWait(cur-1, 10*time.Second); err != nil || e < cur {
		t.Fatalf("stale waiter: %d, %v", e, err)
	} else if time.Since(start) > 5*time.Second {
		t.Fatalf("stale waiter parked anyway")
	}

	// Current: parks, then wakes on the next meta put.
	woke := make(chan uint64, 1)
	go func() {
		e, _ := hb.EpochWait(cur, 10*time.Second)
		woke <- e
	}()
	time.Sleep(20 * time.Millisecond) // let the poll park
	if err := hb.Put(persist.KindMeta, "m1", []byte("y")); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-woke:
		if e <= cur {
			t.Fatalf("woken waiter saw no progress: %d <= %d", e, cur)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never woke after a meta put")
	}

	// Bounded: a short wait with no traffic expires with the same epoch.
	e2, err := hb.EpochWait(cur+1, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if e2 > cur+1 {
		t.Fatalf("idle wait invented progress: %d", e2)
	}
}

// TestHTTPBackendTryLease pins the dispossession story: a holder whose lease
// is stolen (break + re-grant, the stale-takeover sequence) learns about it
// from its next Renew — typed ErrLeaseLost, Lost() readable — and its late
// Release cannot evict the thief.
func TestHTTPBackendTryLease(t *testing.T) {
	t.Parallel()
	url := newCacheServer(t, persist.NewMemBackend())
	victim := newHTTPBackend(t, url)
	thief := newHTTPBackend(t, url)

	lease, err := victim.TryLease("unit-7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := thief.TryLease("unit-7"); !errors.Is(err, persist.ErrLockHeld) {
		t.Fatalf("second lease on a held lock: %v", err)
	}
	if err := lease.Renew(); err != nil {
		t.Fatalf("renew while held: %v", err)
	}
	select {
	case <-lease.Lost():
		t.Fatal("Lost() readable while the lease is held")
	default:
	}

	// The takeover: a peer judges the holder dead, breaks, re-acquires.
	if err := thief.BreakLock("unit-7"); err != nil {
		t.Fatal(err)
	}
	stolen, err := thief.TryLease("unit-7")
	if err != nil {
		t.Fatalf("re-acquire after break: %v", err)
	}
	if err := lease.Renew(); !errors.Is(err, persist.ErrLeaseLost) {
		t.Fatalf("victim's renew after the steal: want ErrLeaseLost, got %v", err)
	}
	select {
	case <-lease.Lost():
	case <-time.After(time.Second):
		t.Fatal("Lost() not readable after a failed renewal")
	}
	lease.Release()
	lease.Release() // idempotent
	if err := stolen.Renew(); err != nil {
		t.Fatalf("victim's late release evicted the thief: %v", err)
	}
	stolen.Release()
}

// TestCacheTryClaimHTTPSteal pins the full elastic dispossession over the
// wire: a stale holder is stolen through TryClaim (Stolen set) and then
// observes the loss on its next synchronous Renew.
func TestCacheTryClaimHTTPSteal(t *testing.T) {
	t.Parallel()
	url := newCacheServer(t, persist.NewMemBackend())
	open := func() *persist.Cache {
		hb := newHTTPBackend(t, url)
		c, err := persist.OpenBackend(hb, persist.Options{StaleLockAge: 60 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	victim, thief := open(), open()

	claim, ok := victim.TryClaim("claim-u9")
	if !ok || claim.Stolen {
		t.Fatalf("fresh claim: ok=%t", ok)
	}
	if _, ok := thief.TryClaim("claim-u9"); ok {
		t.Fatal("fresh lease was dispossessed")
	}
	persist.WaitFor(t, "lease to stale out", func() bool {
		st, ok := thief.TryClaim("claim-u9")
		if ok && !st.Stolen {
			t.Fatal("stale takeover not marked Stolen")
		}
		return ok
	})
	if err := claim.Renew(); !errors.Is(err, persist.ErrLeaseLost) {
		t.Fatalf("victim's renew after the steal: want ErrLeaseLost, got %v", err)
	}
	select {
	case <-claim.Lost():
	case <-time.After(time.Second):
		t.Fatal("claim loss not observable")
	}
	claim.Release()
}
