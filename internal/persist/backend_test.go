package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// backendConformance is the protocol contract every Backend implementation
// must satisfy; it runs identically over the directory store and the
// in-memory fake so the fake stays an honest stand-in.
func backendConformance(t *testing.T, b Backend) {
	t.Helper()

	// Absent objects are ErrNotFound, not an os error in disguise.
	if _, err := b.Get(KindTrace, "absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent): want ErrNotFound, got %v", err)
	}

	// Put/Get round-trips bytes exactly; a second Put replaces.
	want := []byte("payload-one")
	if err := b.Put(KindTrace, "obj", want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := b.Get(KindTrace, "obj")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get: got %q, %v; want %q", got, err, want)
	}
	want2 := []byte("payload-two-longer")
	if err := b.Put(KindTrace, "obj", want2); err != nil {
		t.Fatalf("Put(replace): %v", err)
	}
	if got, _ := b.Get(KindTrace, "obj"); !bytes.Equal(got, want2) {
		t.Fatalf("Get after replace: got %q want %q", got, want2)
	}

	// Kinds are separate namespaces.
	if _, err := b.Get(KindResult, "obj"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("kinds share a namespace: %v", err)
	}
	if err := b.Put(KindResult, "obj", []byte("res")); err != nil {
		t.Fatalf("Put(result): %v", err)
	}

	// List sees exactly the resident objects of one kind, with sizes.
	stats, err := b.List(KindTrace)
	if err != nil || len(stats) != 1 {
		t.Fatalf("List(trace): %v, %v", stats, err)
	}
	if stats[0].Name != "obj" || stats[0].Bytes != int64(len(want2)) {
		t.Fatalf("List stat: %+v", stats[0])
	}

	// Delete is effective and idempotent.
	if err := b.Delete(KindTrace, "obj"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := b.Delete(KindTrace, "obj"); err != nil {
		t.Fatalf("Delete(absent) should be a no-op: %v", err)
	}
	if _, err := b.Get(KindTrace, "obj"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}

	// Locks: exclusive, aged, breakable, releasable.
	if _, err := b.LockAge("l"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LockAge(unheld): want ErrNotFound, got %v", err)
	}
	rel, err := b.TryLock("l")
	if err != nil {
		t.Fatalf("TryLock: %v", err)
	}
	if _, err := b.TryLock("l"); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("second TryLock: want ErrLockHeld, got %v", err)
	}
	if age, err := b.LockAge("l"); err != nil || age < 0 {
		t.Fatalf("LockAge(held): %v, %v", age, err)
	}
	rel()
	if _, err := b.LockAge("l"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LockAge after release: %v", err)
	}
	rel2, err := b.TryLock("l")
	if err != nil {
		t.Fatalf("TryLock after release: %v", err)
	}
	if err := b.BreakLock("l"); err != nil {
		t.Fatalf("BreakLock: %v", err)
	}
	if rel3, err := b.TryLock("l"); err != nil {
		t.Fatalf("TryLock after break: %v", err)
	} else {
		rel3()
	}
	rel2() // releasing a broken lock must not blow up

	// A late release of a lock that was broken and granted again leaves the
	// new holder holding it: the release belongs to the old grant only.
	old, err := b.TryLock("m")
	if err != nil {
		t.Fatalf("TryLock(m): %v", err)
	}
	if err := b.BreakLock("m"); err != nil {
		t.Fatalf("BreakLock(m): %v", err)
	}
	cur, err := b.TryLock("m")
	if err != nil {
		t.Fatalf("TryLock(m) after break: %v", err)
	}
	old()
	if _, err := b.TryLock("m"); !errors.Is(err, ErrLockHeld) {
		t.Fatalf("a late release freed the new holder's lock: TryLock = %v", err)
	}
	if _, err := b.LockAge("m"); err != nil {
		t.Fatalf("LockAge after a late release: %v", err)
	}
	cur()
	if _, err := b.LockAge("m"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the new holder's release did not free the lock: %v", err)
	}
}

func TestDirBackendConformance(t *testing.T) {
	t.Parallel()
	b, err := NewDirBackend(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	backendConformance(t, b)
}

// TestDirBackendLayout pins the directory store's crash and layout
// behaviour: a read-write open sweeps the temp files of writers that died
// mid-put (and only those), a new store has no traces/ directory until a
// trace is stored, and a store whose root vanished is never recreated.
func TestDirBackendLayout(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	b, err := NewDirBackend(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "traces")); !os.IsNotExist(err) {
		t.Fatalf("a new store made traces/: %v", err)
	}
	if err := b.Put(KindResult, "kept", []byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(KindTrace, "kept", []byte("t")); err != nil {
		t.Fatalf("first trace put: %v", err)
	}

	strays := []string{
		filepath.Join(dir, "traces", "deadbeef.trc.tmp.12345"),
		filepath.Join(dir, "results", "deadbeef.res.tmp.12345"),
		filepath.Join(dir, "elastic-x.tmp.12345"),
	}
	for _, stray := range strays {
		if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewDirBackend(dir, true); err != nil {
		t.Fatal(err)
	}
	for _, stray := range strays {
		if _, err := os.Stat(stray); err != nil {
			t.Fatalf("a read-only open removed %s: %v", stray, err)
		}
	}
	if _, err := NewDirBackend(dir, false); err != nil {
		t.Fatal(err)
	}
	for _, stray := range strays {
		if _, err := os.Stat(stray); !os.IsNotExist(err) {
			t.Fatalf("stray temp %s survived a read-write open", stray)
		}
	}
	for _, kind := range []string{KindResult, KindTrace} {
		if _, err := b.Get(kind, "kept"); err != nil {
			t.Fatalf("the sweep removed a published %s: %v", kind, err)
		}
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(KindResult, "late", []byte("r")); err == nil {
		t.Fatalf("a put into a vanished store succeeded")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("a put recreated the vanished store root: %v", err)
	}
}

func TestMemBackendConformance(t *testing.T) {
	t.Parallel()
	backendConformance(t, NewMemBackend())
}

func TestMemBackendNoSpace(t *testing.T) {
	t.Parallel()
	b := NewMemBackend()
	b.SetCapacity(10)
	if err := b.Put(KindTrace, "a", []byte("12345")); err != nil {
		t.Fatalf("Put under cap: %v", err)
	}
	if err := b.Put(KindTrace, "b", []byte("123456")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Put past cap: want ErrNoSpace, got %v", err)
	}
	// Replacing an object accounts for the bytes it frees.
	if err := b.Put(KindTrace, "a", []byte("1234567890")); err != nil {
		t.Fatalf("Put(replace) within cap: %v", err)
	}
}

// TestChaosSpecGrammar pins the -cache-chaos spec grammar: every key, the
// rate shorthand, override ordering, and the rejections.
func TestChaosSpecGrammar(t *testing.T) {
	t.Parallel()
	spec, err := ParseChaosSpec("seed=7,rate=0.5,latency=0.25,delay=5ms")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if spec.Seed != 7 || spec.Err != 0.5 || spec.Torn != 0.5 || spec.Corrupt != 0.5 ||
		spec.NoSpace != 0.5 || spec.LockStall != 0.5 || spec.Latency != 0.25 ||
		spec.Delay != 5*time.Millisecond {
		t.Fatalf("spec fields: %+v", spec)
	}
	// Individual keys override the shorthand regardless of order.
	spec, err = ParseChaosSpec("err=0.9,rate=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Err != 0.1 {
		t.Fatalf("later rate should override earlier err: %+v", spec)
	}
	spec, err = ParseChaosSpec("rate=0.1,err=0.9")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Err != 0.9 || spec.Torn != 0.1 {
		t.Fatalf("later err should override earlier rate: %+v", spec)
	}
	for _, bad := range []string{
		"", "rate", "rate=", "rate=-0.1", "rate=1.5", "seed=x", "bogus=1",
		"delay=-5ms", "delay=fast", "err=2",
	} {
		if _, err := ParseChaosSpec(bad); err == nil {
			t.Errorf("ParseChaosSpec(%q) should fail", bad)
		}
	}
}

// TestChaosDeterminism pins seeded reproducibility: the same spec over the
// same single-threaded op sequence injects the identical fault pattern.
func TestChaosDeterminism(t *testing.T) {
	t.Parallel()
	run := func() []string {
		spec := &ChaosSpec{Seed: 42, Err: 0.5, Delay: time.Microsecond}
		ch := NewChaos(NewMemBackend(), spec, nil)
		var outcomes []string
		for i := 0; i < 64; i++ {
			err := ch.Put(KindTrace, fmt.Sprintf("o%d", i), []byte("x"))
			outcomes = append(outcomes, fmt.Sprintf("put%d:%v", i, err))
			_, err = ch.Get(KindTrace, fmt.Sprintf("o%d", i))
			outcomes = append(outcomes, fmt.Sprintf("get%d:%v", i, err))
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault pattern diverges at op %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestChaosFaultClasses drives each fault class at probability 1 and checks
// the injected failure has the right shape and is counted.
func TestChaosFaultClasses(t *testing.T) {
	t.Parallel()

	t.Run("err", func(t *testing.T) {
		t.Parallel()
		st := &StackStats{}
		ch := NewChaos(NewMemBackend(), &ChaosSpec{Err: 1}, st)
		if err := ch.Put(KindTrace, "o", []byte("x")); !IsUnavailable(err) {
			t.Fatalf("want unavailable, got %v", err)
		}
		if _, err := ch.Get(KindTrace, "o"); !IsUnavailable(err) {
			t.Fatalf("want unavailable, got %v", err)
		}
		if _, err := ch.List(KindTrace); !IsUnavailable(err) {
			t.Fatalf("want unavailable, got %v", err)
		}
		if st.ChaosErrs.Load() != 3 {
			t.Fatalf("ChaosErrs = %d, want 3", st.ChaosErrs.Load())
		}
	})

	t.Run("nospace", func(t *testing.T) {
		t.Parallel()
		st := &StackStats{}
		ch := NewChaos(NewMemBackend(), &ChaosSpec{NoSpace: 1}, st)
		if err := ch.Put(KindTrace, "o", []byte("x")); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("want ErrNoSpace, got %v", err)
		}
		if st.ChaosNoSpace.Load() != 1 {
			t.Fatalf("ChaosNoSpace = %d", st.ChaosNoSpace.Load())
		}
	})

	t.Run("torn", func(t *testing.T) {
		t.Parallel()
		st := &StackStats{}
		inner := NewMemBackend()
		ch := NewChaos(inner, &ChaosSpec{Torn: 1}, st)
		payload := []byte("a-long-enough-payload-to-tear")
		if err := ch.Put(KindTrace, "o", payload); !IsUnavailable(err) {
			t.Fatalf("torn put should fail unavailable, got %v", err)
		}
		// The inner backend holds a strict prefix: the torn file a crashed
		// non-atomic writer would leave behind.
		got, err := inner.Get(KindTrace, "o")
		if err != nil {
			t.Fatalf("torn put left nothing behind: %v", err)
		}
		if len(got) >= len(payload) || !bytes.Equal(got, payload[:len(got)]) {
			t.Fatalf("torn remnant is not a strict prefix: %d/%d bytes", len(got), len(payload))
		}
		if st.ChaosTorn.Load() != 1 {
			t.Fatalf("ChaosTorn = %d", st.ChaosTorn.Load())
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		t.Parallel()
		st := &StackStats{}
		inner := NewMemBackend()
		payload := []byte("pristine-bytes")
		if err := inner.Put(KindTrace, "o", payload); err != nil {
			t.Fatal(err)
		}
		ch := NewChaos(inner, &ChaosSpec{Corrupt: 1}, st)
		got, err := ch.Get(KindTrace, "o")
		if err != nil {
			t.Fatalf("corrupt get should succeed: %v", err)
		}
		if bytes.Equal(got, payload) {
			t.Fatalf("corrupt get returned pristine bytes")
		}
		diff := 0
		for i := range got {
			for b := uint(0); b < 8; b++ {
				if (got[i]^payload[i])&(1<<b) != 0 {
					diff++
				}
			}
		}
		if diff != 1 {
			t.Fatalf("corruption flipped %d bits, want exactly 1", diff)
		}
		if st.ChaosCorrupt.Load() != 1 {
			t.Fatalf("ChaosCorrupt = %d", st.ChaosCorrupt.Load())
		}
	})

	t.Run("latency-and-lockstall", func(t *testing.T) {
		t.Parallel()
		st := &StackStats{}
		ch := NewChaos(NewMemBackend(), &ChaosSpec{Latency: 1, LockStall: 1, Delay: time.Microsecond}, st)
		if err := ch.Put(KindTrace, "o", []byte("x")); err != nil {
			t.Fatalf("latency-only put should succeed: %v", err)
		}
		rel, err := ch.TryLock("l")
		if err != nil {
			t.Fatalf("lockstall-only TryLock should succeed: %v", err)
		}
		rel()
		if st.ChaosLatency.Load() == 0 || st.ChaosLockStalls.Load() == 0 {
			t.Fatalf("stalls not counted: %+v", st.Snapshot())
		}
	})
}

// flakyBackend fails every object op with a transient error until failures
// is exhausted, then delegates.
type flakyBackend struct {
	Backend
	mu       sync.Mutex
	failures int
	calls    int
}

func (f *flakyBackend) tryFail(op string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.failures > 0 {
		f.failures--
		return unavailable(op, "", "", errors.New("flaky"))
	}
	return nil
}

func (f *flakyBackend) Get(kind, name string) ([]byte, error) {
	if err := f.tryFail("get"); err != nil {
		return nil, err
	}
	return f.Backend.Get(kind, name)
}

func (f *flakyBackend) Put(kind, name string, data []byte) error {
	if err := f.tryFail("put"); err != nil {
		return err
	}
	return f.Backend.Put(kind, name, data)
}

// TestRetryBackend pins the retry policy: transient failures are re-attempted
// up to the budget, terminal errors never are, and the counters record it.
func TestRetryBackend(t *testing.T) {
	t.Parallel()

	t.Run("recovers within budget", func(t *testing.T) {
		t.Parallel()
		st := &StackStats{}
		fb := &flakyBackend{Backend: NewMemBackend(), failures: 2}
		rb := newHardened(fb, Options{Retries: 2, RetryBase: time.Microsecond, BreakerThreshold: -1}, st)
		if err := rb.Put(KindTrace, "o", []byte("x")); err != nil {
			t.Fatalf("put should recover after retries: %v", err)
		}
		if got, err := rb.Get(KindTrace, "o"); err != nil || !bytes.Equal(got, []byte("x")) {
			t.Fatalf("get after recovery: %q, %v", got, err)
		}
		if st.Retries.Load() != 2 || st.RetryGiveups.Load() != 0 {
			t.Fatalf("retry counters: %+v", st.Snapshot())
		}
	})

	t.Run("gives up past budget", func(t *testing.T) {
		t.Parallel()
		st := &StackStats{}
		fb := &flakyBackend{Backend: NewMemBackend(), failures: 10}
		rb := newHardened(fb, Options{Retries: 2, RetryBase: time.Microsecond, BreakerThreshold: -1}, st)
		if err := rb.Put(KindTrace, "o", []byte("x")); !IsUnavailable(err) {
			t.Fatalf("want unavailable after exhausted budget, got %v", err)
		}
		if fb.calls != 3 { // 1 attempt + 2 retries
			t.Fatalf("backend saw %d calls, want 3", fb.calls)
		}
		if st.RetryGiveups.Load() != 1 {
			t.Fatalf("giveups: %+v", st.Snapshot())
		}
	})

	t.Run("terminal errors not retried", func(t *testing.T) {
		t.Parallel()
		st := &StackStats{}
		mb := NewMemBackend()
		mb.SetCapacity(1)
		rb := newHardened(mb, Options{Retries: 5, RetryBase: time.Microsecond, BreakerThreshold: -1}, st)
		if _, err := rb.Get(KindTrace, "absent"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("want ErrNotFound, got %v", err)
		}
		if err := rb.Put(KindTrace, "big", []byte("too-big")); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("want ErrNoSpace, got %v", err)
		}
		if st.Retries.Load() != 0 {
			t.Fatalf("terminal errors were retried: %+v", st.Snapshot())
		}
	})
}

// slowBackend blocks every Get until released.
type slowBackend struct {
	Backend
	gate chan struct{}
}

func (s *slowBackend) Get(kind, name string) ([]byte, error) {
	<-s.gate
	return s.Backend.Get(kind, name)
}

// TestTimeoutBackend pins the per-op timeout: a hung op degrades to
// *UnavailableError without blocking the caller.
func TestTimeoutBackend(t *testing.T) {
	t.Parallel()
	st := &StackStats{}
	sb := &slowBackend{Backend: NewMemBackend(), gate: make(chan struct{})}
	tb := newHardened(sb, Options{OpTimeout: 5 * time.Millisecond, Retries: -1, BreakerThreshold: -1}, st)
	start := time.Now()
	_, err := tb.Get(KindTrace, "o")
	if !IsUnavailable(err) {
		t.Fatalf("want unavailable on timeout, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("timeout did not bound the op")
	}
	if st.Timeouts.Load() != 1 {
		t.Fatalf("Timeouts = %d", st.Timeouts.Load())
	}
	close(sb.gate) // release the background goroutine
	// A fast op passes through untouched.
	if err := tb.Put(KindTrace, "o", []byte("x")); err != nil {
		t.Fatalf("fast put: %v", err)
	}
	if got, err := tb.Get(KindTrace, "o"); err != nil || !bytes.Equal(got, []byte("x")) {
		t.Fatalf("fast get: %q, %v", got, err)
	}
}

// sleepyBackend answers every Get and List late, after the caller's
// per-attempt budget has long fired.
type sleepyBackend struct {
	Backend
	d time.Duration
}

func (s *sleepyBackend) Get(kind, name string) ([]byte, error) {
	time.Sleep(s.d)
	return []byte("late"), nil
}

func (s *sleepyBackend) List(kind string) ([]Stat, error) {
	time.Sleep(s.d)
	return []Stat{{Name: "late"}}, nil
}

// TestTimeoutAbandonedAttemptRace pins that an attempt abandoned by the
// timeout writes nothing its caller can see. The late Get and List finish
// after their callers returned; under -race, a goroutine that assigned the
// op's results would race the return that already set them.
func TestTimeoutAbandonedAttemptRace(t *testing.T) {
	t.Parallel()
	st := &StackStats{}
	sb := &sleepyBackend{Backend: NewMemBackend(), d: 20 * time.Millisecond}
	tb := newHardened(sb, Options{OpTimeout: 2 * time.Millisecond, Retries: -1, BreakerThreshold: -1}, st)
	for i := 0; i < 3; i++ {
		if data, err := tb.Get(KindResult, "o"); !IsUnavailable(err) || data != nil {
			t.Fatalf("get %d: %q, %v; want a timed-out miss", i, data, err)
		}
		if stats, err := tb.List(KindResult); !IsUnavailable(err) || stats != nil {
			t.Fatalf("list %d: %v, %v; want a timed-out miss", i, stats, err)
		}
	}
	// An abandoned attempt's end is invisible from outside by design, so
	// wait it out by time: the late writes must land while this test runs.
	time.Sleep(3 * sb.d)
	if st.Timeouts.Load() != 6 {
		t.Fatalf("Timeouts = %d, want 6", st.Timeouts.Load())
	}
}

// TestBreakerTripsThroughNoSpaceWrites pins the breaker against a store
// whose reads all fail while its writes answer ErrNoSpace: the refused
// writes neither count as failures nor reset the run, so the failing reads
// trip it at the threshold.
func TestBreakerTripsThroughNoSpaceWrites(t *testing.T) {
	t.Parallel()
	st := &StackStats{}
	ch := NewChaos(NewMemBackend(), &ChaosSpec{Err: 1, NoSpace: 1}, st)
	bb := newHardened(ch, Options{Retries: -1, BreakerThreshold: 3, BreakerCooldown: time.Minute}, st)
	for i := 0; i < 2; i++ {
		if _, err := bb.Get(KindResult, "o"); !IsUnavailable(err) {
			t.Fatalf("read %d: %v", i, err)
		}
		if err := bb.Put(KindResult, "o", []byte("x")); !errors.Is(err, ErrNoSpace) {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if st.BreakerTrips.Load() != 0 {
		t.Fatalf("tripped below the threshold: %+v", st.Snapshot())
	}
	if _, err := bb.Get(KindResult, "o"); !IsUnavailable(err) {
		t.Fatalf("third read: %v", err)
	}
	if st.BreakerTrips.Load() != 1 {
		t.Fatalf("three failed reads between refused writes did not trip: %+v", st.Snapshot())
	}

}

// TestBreakerLifecycle drives the circuit breaker through its full state
// machine with an injected clock: consecutive failures trip it, an open
// breaker fast-fails without touching the backend, the cooldown admits one
// half-open probe, a failed probe re-trips, a successful probe recloses —
// and every transition is visible in the counters.
func TestBreakerLifecycle(t *testing.T) {
	t.Parallel()
	st := &StackStats{}
	fb := &flakyBackend{Backend: NewMemBackend(), failures: 1000}
	bb := newHardened(fb, Options{Retries: -1, BreakerThreshold: 3, BreakerCooldown: time.Minute}, st)
	now := time.Unix(1000, 0)
	bb.now = func() time.Time { return now }

	// Three consecutive transient failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := bb.Get(KindTrace, "o"); !IsUnavailable(err) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	if st.BreakerTrips.Load() != 1 {
		t.Fatalf("trips after threshold: %+v", st.Snapshot())
	}

	// Open: fast-fail with ErrBreakerOpen, backend untouched.
	callsBefore := fb.calls
	for i := 0; i < 5; i++ {
		if _, err := bb.Get(KindTrace, "o"); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("open breaker let an op through: %v", err)
		}
	}
	if fb.calls != callsBefore {
		t.Fatalf("open breaker touched the backend %d times", fb.calls-callsBefore)
	}
	if st.BreakerRejects.Load() != 5 {
		t.Fatalf("rejects: %+v", st.Snapshot())
	}

	// Cooldown elapses; the next op is the half-open probe. It fails (the
	// backend is still down), so the breaker re-trips for a full cooldown.
	now = now.Add(2 * time.Minute)
	if _, err := bb.Get(KindTrace, "o"); !IsUnavailable(err) {
		t.Fatalf("probe should reach the backend and fail: %v", err)
	}
	if st.BreakerProbes.Load() != 1 || st.BreakerTrips.Load() != 2 {
		t.Fatalf("failed probe should re-trip: %+v", st.Snapshot())
	}
	if _, err := bb.Get(KindTrace, "o"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("breaker should be open again after failed probe: %v", err)
	}

	// The backend heals; after another cooldown the probe succeeds
	// (ErrNotFound proves the backend reachable) and the breaker recloses.
	fb.mu.Lock()
	fb.failures = 0
	fb.mu.Unlock()
	now = now.Add(2 * time.Minute)
	if _, err := bb.Get(KindTrace, "o"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("healed probe: want ErrNotFound, got %v", err)
	}
	if st.BreakerProbes.Load() != 2 || st.BreakerRecoveries.Load() != 1 {
		t.Fatalf("recovery not recorded: %+v", st.Snapshot())
	}
	// Closed again: ordinary ops flow.
	if err := bb.Put(KindTrace, "o", []byte("x")); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
	if got, err := bb.Get(KindTrace, "o"); err != nil || !bytes.Equal(got, []byte("x")) {
		t.Fatalf("get after recovery: %q, %v", got, err)
	}
}

// TestBreakerHalfOpenSingleProbe pins that a half-open breaker admits exactly
// one probe: concurrent calls while the probe is in flight fast-fail.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	t.Parallel()
	st := &StackStats{}
	gate := &slowBackend{Backend: NewMemBackend(), gate: make(chan struct{})}
	bb := newHardened(&failingThen{inner: gate}, Options{Retries: -1, BreakerThreshold: 1, BreakerCooldown: time.Minute}, st)
	now := time.Unix(1000, 0)
	bb.now = func() time.Time { return now }

	// Trip it.
	if _, err := bb.Get(KindTrace, "o"); !IsUnavailable(err) {
		t.Fatalf("trip: %v", err)
	}
	now = now.Add(2 * time.Minute)

	// First call becomes the probe and blocks on the gate; a second call
	// while it is in flight must fast-fail, not become a second probe.
	probeDone := make(chan error, 1)
	go func() {
		_, err := bb.Get(KindTrace, "o")
		probeDone <- err
	}()
	// Wait until the probe is inside the backend (registered as probing).
	for i := 0; ; i++ {
		bb.mu.Lock()
		probing := bb.probing
		bb.mu.Unlock()
		if probing {
			break
		}
		if i > 10000 {
			t.Fatalf("probe never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := bb.Get(KindTrace, "o"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second half-open call should fast-fail: %v", err)
	}
	close(gate.gate)
	if err := <-probeDone; !errors.Is(err, ErrNotFound) {
		t.Fatalf("probe outcome: %v", err)
	}
	if st.BreakerProbes.Load() != 1 || st.BreakerRecoveries.Load() != 1 {
		t.Fatalf("probe accounting: %+v", st.Snapshot())
	}
}

// failingThen fails its first object op, then delegates forever.
type failingThen struct {
	inner Backend
	mu    sync.Mutex
	done  bool
}

func (f *failingThen) step() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.done {
		f.done = true
		return unavailable("get", "", "", errors.New("first call fails"))
	}
	return nil
}

func (f *failingThen) Get(kind, name string) ([]byte, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.inner.Get(kind, name)
}
func (f *failingThen) Put(kind, name string, data []byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Put(kind, name, data)
}
func (f *failingThen) Delete(kind, name string) error      { return f.inner.Delete(kind, name) }
func (f *failingThen) List(kind string) ([]Stat, error)    { return f.inner.List(kind) }
func (f *failingThen) TryLock(name string) (func(), error) { return f.inner.TryLock(name) }
func (f *failingThen) LockAge(name string) (time.Duration, error) {
	return f.inner.LockAge(name)
}
func (f *failingThen) BreakLock(name string) error { return f.inner.BreakLock(name) }

// TestCacheOverMemBackend runs the full Cache result-tier path over the
// in-memory fake: OpenBackend, store, load, counters — no directory at all.
func TestCacheOverMemBackend(t *testing.T) {
	t.Parallel()
	mb := NewMemBackend()
	c, err := OpenBackend(mb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := SumID("mem-result")
	want := &CellResult{Checksum: 0xfeed}
	if err := c.StoreResult(id, want); err != nil {
		t.Fatalf("StoreResult: %v", err)
	}
	got, err := c.LoadResult(id)
	if err != nil || got.Checksum != want.Checksum {
		t.Fatalf("LoadResult: %+v, %v", got, err)
	}
	if _, err := c.LoadResult(SumID("other")); !errors.Is(err, ErrMiss) {
		t.Fatalf("miss: %v", err)
	}
	if mb.Len(KindResult) != 1 {
		t.Fatalf("backend holds %d results", mb.Len(KindResult))
	}
	// A second Cache over the same backend serves the entry.
	c2, err := OpenBackend(mb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c2.LoadResult(id); err != nil || got.Checksum != want.Checksum {
		t.Fatalf("second cache LoadResult: %+v, %v", got, err)
	}
}

// TestCacheLockFailOpen pins the no-stranded-claimant guarantee: when the
// lock plane itself is unavailable, TryClaim grants the claim at once and
// counts the degraded op — a broken backend can only ever cost a duplicate
// unit, never a stall.
func TestCacheLockFailOpen(t *testing.T) {
	t.Parallel()
	c, err := OpenBackend(NewMemBackend(), Options{
		Chaos:   &ChaosSpec{Err: 1},
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 2; i++ {
		// A second claim on the same name is granted too: nothing holds it.
		cl, ok := c.TryClaim("lock-fail-open")
		if !ok {
			t.Fatalf("claim %d: unavailable lock plane must fail open to claimant", i)
		}
		if cl.Stolen {
			t.Fatalf("claim %d: a fail-open claim reported a steal", i)
		}
		cl.Release()
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("claims stalled %v under a dead lock plane", elapsed)
	}
	if cc := c.Counters(); cc.Unavailable != 2 || cc.LockContended != 0 {
		t.Fatalf("counters: %+v", cc)
	}
}

// TestCacheChaosFullRate proves the Cache API never panics and always
// returns typed errors with every fault class at probability 1.
func TestCacheChaosFullRate(t *testing.T) {
	t.Parallel()
	c, err := OpenBackend(NewMemBackend(), Options{
		Chaos:            &ChaosSpec{Err: 1, Torn: 1, Corrupt: 1, NoSpace: 1, LockStall: 1, Delay: time.Microsecond},
		Retries:          -1,
		BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := SumID("chaos-full")
	if err := c.StoreResult(id, &CellResult{Checksum: 1}); err == nil {
		t.Fatalf("store under total chaos should fail")
	}
	if _, err := c.LoadResult(id); err == nil {
		t.Fatalf("load under total chaos should fail")
	}
	if cl, ok := c.TryClaim("chaos-full"); !ok {
		t.Fatalf("claim must fail open")
	} else {
		cl.Release()
	}
	s := c.StackCounters()
	if s.ChaosErrs == 0 && s.ChaosNoSpace == 0 {
		t.Fatalf("chaos injected nothing: %+v", s)
	}
	if got := c.Counters(); got.Unavailable == 0 {
		t.Fatalf("degraded ops not counted: %+v", got)
	}
}
