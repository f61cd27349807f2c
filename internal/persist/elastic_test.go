// The elastic scheduling surface's proof obligations: the server's epoch
// plane must bump on scheduling-relevant state (markers, lock grants, lock
// releases) and only that, the long-poll must park and wake rather than
// spin, the read-through cache must serve immutable kinds from memory
// without ever going stale or leaking a mutable slice, leases must make
// stale-takeover observable to the dispossessed holder, and the Cache-level
// claim/marker/wait primitives must compose those planes with the package's
// fail-open posture.
package persist

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestCacheServerEpoch pins what moves the epoch: meta puts, lock grants and
// lock releases bump it; artifact traffic (trace/result puts, gets, lists)
// does not — bulk transfers must not wake parked workers.
func TestCacheServerEpoch(t *testing.T) {
	t.Parallel()
	hb := newHTTPBackend(t, newCacheServer(t, NewMemBackend()))

	epoch := func() uint64 {
		t.Helper()
		e, err := hb.EpochWait(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e0 := epoch()

	if err := hb.Put(kindTrace, "t1", []byte("bulk")); err != nil {
		t.Fatal(err)
	}
	if err := hb.Put(kindResult, "r1", []byte("bulk")); err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Get(kindTrace, "t1"); err != nil {
		t.Fatal(err)
	}
	if got := epoch(); got != e0 {
		t.Fatalf("artifact traffic moved the epoch: %d -> %d", e0, got)
	}

	if err := hb.Put(kindMeta, "marker-1", []byte("{}")); err != nil {
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
	hb := newHTTPBackend(t, newCacheServer(t, NewMemBackend()))

	if err := hb.Put(kindMeta, "m0", []byte("x")); err != nil {
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
	if err := hb.Put(kindMeta, "m1", []byte("y")); err != nil {
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

// TestHTTPBackendReadCache pins the warm-path memory tier: immutable kinds
// (traces, results) are served from memory on re-read, callers get private
// copies, the meta namespace is never cached (markers are mutable), and the
// byte bound evicts LRU-first.
func TestHTTPBackendReadCache(t *testing.T) {
	t.Parallel()
	url := newCacheServer(t, NewMemBackend())
	hb := newHTTPBackend(t, url)

	body := []byte("trace-bytes")
	if err := hb.Put(kindTrace, "a", body); err != nil {
		t.Fatal(err)
	}
	got1, err := hb.Get(kindTrace, "a")
	if err != nil || !bytes.Equal(got1, body) {
		t.Fatalf("cold get: %q, %v", got1, err)
	}
	wireGets := hb.Counters().Gets
	got2, err := hb.Get(kindTrace, "a")
	if err != nil || !bytes.Equal(got2, body) {
		t.Fatalf("warm get: %q, %v", got2, err)
	}
	c := hb.Counters()
	if c.Gets != wireGets {
		t.Fatalf("warm get went to the wire: %d -> %d wire gets", wireGets, c.Gets)
	}
	if c.ReadHits != 1 || c.ReadMisses != 1 || c.ReadSavedBytes != uint64(len(body)) {
		t.Fatalf("read cache counters: hits=%d misses=%d saved=%d", c.ReadHits, c.ReadMisses, c.ReadSavedBytes)
	}

	// A caller mutating its slice must not poison later reads.
	got2[0] = 'X'
	got3, err := hb.Get(kindTrace, "a")
	if err != nil || !bytes.Equal(got3, body) {
		t.Fatalf("cached bytes poisoned by a caller mutation: %q, %v", got3, err)
	}

	// A local overwrite invalidates the cached body: the Backend contract
	// allows same-name replacement even though the artifact tiers are
	// content-addressed in practice.
	if err := hb.Put(kindTrace, "a", []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	if got, err := hb.Get(kindTrace, "a"); err != nil || string(got) != "replaced" {
		t.Fatalf("read cache served stale bytes after an overwrite: %q, %v", got, err)
	}
	// Meta objects are mutable coordination state: never served from memory.
	if err := hb.Put(kindMeta, "m", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Get(kindMeta, "m"); err != nil {
		t.Fatal(err)
	}
	if err := hb.Put(kindMeta, "m", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, err := hb.Get(kindMeta, "m"); err != nil || string(got) != "v2" {
		t.Fatalf("meta read served stale cached bytes: %q, %v", got, err)
	}

	// Disabled outright with a negative bound: every get is a wire get.
	off, err := NewHTTPBackend(url, HTTPOptions{RenewEvery: -1, ReadCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.Get(kindTrace, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := off.Get(kindTrace, "a"); err != nil {
		t.Fatal(err)
	}
	if c := off.Counters(); c.Gets != 2 || c.ReadHits != 0 {
		t.Fatalf("disabled cache still caching: wire=%d hits=%d", c.Gets, c.ReadHits)
	}
}

// TestHTTPBackendReadCacheEviction pins the byte bound: the LRU entry goes
// first, and an object larger than the whole bound is never admitted.
func TestHTTPBackendReadCacheEviction(t *testing.T) {
	t.Parallel()
	url := newCacheServer(t, NewMemBackend())
	hb, err := NewHTTPBackend(url, HTTPOptions{RenewEvery: -1, ReadCacheBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 40)
	for _, name := range []string{"a", "b", "c"} {
		if err := hb.Put(kindTrace, name, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := hb.Get(kindTrace, name); err != nil {
			t.Fatal(err)
		}
	}
	// a/b/c at 40B each against a 100B bound: "a" must have been evicted.
	wire := hb.Counters().Gets
	if _, err := hb.Get(kindTrace, "c"); err != nil {
		t.Fatal(err)
	}
	if hb.Counters().Gets != wire {
		t.Fatalf("most-recent entry evicted")
	}
	if _, err := hb.Get(kindTrace, "a"); err != nil {
		t.Fatal(err)
	}
	if hb.Counters().Gets != wire+1 {
		t.Fatalf("LRU entry not evicted")
	}

	// Oversized: passes through without ever being admitted.
	big := bytes.Repeat([]byte("y"), 200)
	if err := hb.Put(kindTrace, "big", big); err != nil {
		t.Fatal(err)
	}
	wire = hb.Counters().Gets
	if _, err := hb.Get(kindTrace, "big"); err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Get(kindTrace, "big"); err != nil {
		t.Fatal(err)
	}
	if hb.Counters().Gets != wire+2 {
		t.Fatalf("oversized object was cached")
	}
}

// TestHTTPBackendTryLease pins the dispossession story: a holder whose lease
// is stolen (break + re-grant, the stale-takeover sequence) learns about it
// from its next Renew — typed ErrLeaseLost, Lost() readable — and its late
// Release cannot evict the thief.
func TestHTTPBackendTryLease(t *testing.T) {
	t.Parallel()
	url := newCacheServer(t, NewMemBackend())
	victim := newHTTPBackend(t, url)
	thief := newHTTPBackend(t, url)

	lease, err := victim.TryLease("unit-7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := thief.TryLease("unit-7"); !errors.Is(err, ErrLockHeld) {
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
	if err := lease.Renew(); !errors.Is(err, ErrLeaseLost) {
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

// TestCacheTryClaimDir pins the claim plane over the local directory store:
// fresh grants win, fresh holders contend, stale holders are stolen with
// Stolen set, and read-only caches claim trivially.
func TestCacheTryClaimDir(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a, err := Open(dir, Options{StaleLockAge: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir, Options{StaleLockAge: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	claim, ok := a.TryClaim("claim-u1")
	if !ok || claim.Stolen {
		t.Fatalf("fresh claim: ok=%t stolen=%t", ok, claim != nil && claim.Stolen)
	}
	if err := claim.Renew(); err != nil {
		t.Fatalf("dir claims renew trivially: %v", err)
	}
	if _, ok := b.TryClaim("claim-u1"); ok {
		t.Fatal("fresh holder was dispossessed")
	}
	if b.Counters().LockContended == 0 {
		t.Fatal("contended claim not counted")
	}

	// The holder goes silent past StaleLockAge: the peer steals.
	waitFor(t, "claim to stale out", func() bool {
		st, ok := b.TryClaim("claim-u1")
		if ok {
			if !st.Stolen {
				t.Fatal("stale takeover not marked Stolen")
			}
			st.Release()
		}
		return ok
	})
	claim.Release() // late release by the presumed-dead holder: harmless

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if cl, ok := ro.TryClaim("claim-u2"); !ok {
		t.Fatal("read-only cache must claim trivially")
	} else {
		cl.Release()
	}
	if err := ro.PutMarker("m", nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only marker put: %v", err)
	}
}

// TestCacheTryClaimHTTPSteal pins the full elastic dispossession over the
// wire: a stale holder is stolen through TryClaim (Stolen set) and then
// observes the loss on its next synchronous Renew.
func TestCacheTryClaimHTTPSteal(t *testing.T) {
	t.Parallel()
	url := newCacheServer(t, NewMemBackend())
	open := func() *Cache {
		hb := newHTTPBackend(t, url)
		c, err := OpenBackend(hb, Options{StaleLockAge: 60 * time.Millisecond})
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
	waitFor(t, "lease to stale out", func() bool {
		st, ok := thief.TryClaim("claim-u9")
		if ok && !st.Stolen {
			t.Fatal("stale takeover not marked Stolen")
		}
		return ok
	})
	if err := claim.Renew(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("victim's renew after the steal: want ErrLeaseLost, got %v", err)
	}
	select {
	case <-claim.Lost():
	case <-time.After(time.Second):
		t.Fatal("claim loss not observable")
	}
	claim.Release()
}

// TestCacheMarkers pins the marker namespace: round-trip, typed miss,
// sorted prefix listing, and independence from the artifact byte cap.
func TestCacheMarkers(t *testing.T) {
	t.Parallel()
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.GetMarker("absent"); !errors.Is(err, ErrMiss) {
		t.Fatalf("absent marker: want ErrMiss, got %v", err)
	}
	for i := 3; i >= 0; i-- {
		name := fmt.Sprintf("elastic-g1-u%03d", i)
		if err := c.PutMarker(name, []byte(fmt.Sprintf(`{"unit":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PutMarker("other-g2-u000", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetMarker("elastic-g1-u002")
	if err != nil || string(got) != `{"unit":2}` {
		t.Fatalf("marker round-trip: %q, %v", got, err)
	}
	names, err := c.ListMarkers("elastic-g1-")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 || names[0] != "elastic-g1-u000" || names[3] != "elastic-g1-u003" {
		t.Fatalf("prefix listing: %v", names)
	}
}

// TestCacheWaitChange pins the no-epoch fallback: a directory store cannot
// park, so the wait is a bounded sleep whose return value forces a rescan.
func TestCacheWaitChange(t *testing.T) {
	t.Parallel()
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if e := c.WaitChange(5, 10*time.Millisecond); e != 6 {
		t.Fatalf("dir fallback epoch: want 6, got %d", e)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("dir fallback overslept")
	}
}
