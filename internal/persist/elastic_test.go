// The elastic scheduling surface's proof obligations over the local
// directory store: the Cache-level claim/marker/wait primitives must compose
// the backend's planes with the package's fail-open posture. The planes only
// a cache server has — the epoch long-poll and leases whose loss is
// observable — are tested over the wire in httpbackend_test.go.
package persist

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

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
