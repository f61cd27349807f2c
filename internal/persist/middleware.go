// The hardening layer: one Backend wrapper that turns a flaky store into one
// whose only failure mode is "miss". Every object op takes the same path —
//
//	breaker admission → bounded retries, each attempt under the per-attempt
//	timeout → breaker settle on the final outcome
//
// — so retries never waste attempts on a breaker that already knows the
// backend is down (ErrBreakerOpen is decided before the first attempt), and
// the breaker counts post-retry outcomes: it trips only when an op failed
// even after its retries, i.e. on sustained unavailability. The chaos
// injector, when configured, sits under the layer, so every attempt can
// draw a fault. Lock ops pass straight through: ErrLockHeld is a lost race,
// and an unavailable lock plane fails open at the Cache layer.
//
// Only *UnavailableError is ever retried. ErrNotFound is an answer,
// ErrNoSpace is final for the write that hit it, ErrLockHeld is a lost race;
// retrying any of them would be wrong, not just wasteful.
package persist

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Hardening defaults: applied when the corresponding Options field is 0
// (a negative value disables that part of the layer).
const (
	// DefaultRetries is the bounded retry budget per op beyond the first
	// attempt.
	DefaultRetries = 2
	// DefaultRetryBase is the first backoff step; attempt n sleeps
	// base·2ⁿ plus up to base of random jitter.
	DefaultRetryBase = 2 * time.Millisecond
	// DefaultBreakerThreshold is the consecutive-failure count that trips
	// the circuit breaker open.
	DefaultBreakerThreshold = 8
	// DefaultBreakerCooldown is how long an open breaker fast-fails before
	// half-opening for a probe.
	DefaultBreakerCooldown = time.Second
)

// StackStats is the hardening layer's live counter set, shared with the
// chaos injector under it and exported to the persist.retry.* /
// persist.timeout.* / persist.breaker.* / persist.chaos.* obs namespaces.
// All fields are atomic; snapshot with Snapshot.
type StackStats struct {
	RetryAttempts atomic.Uint64 // ops that ran under a retry budget
	Retries       atomic.Uint64 // individual re-attempts after a transient failure
	RetryGiveups  atomic.Uint64 // ops still failing after the full budget

	Timeouts atomic.Uint64 // attempts cut off by the per-attempt timeout

	BreakerTrips      atomic.Uint64 // closed/half-open → open transitions
	BreakerRejects    atomic.Uint64 // ops fast-failed while open
	BreakerProbes     atomic.Uint64 // half-open probe attempts
	BreakerRecoveries atomic.Uint64 // half-open → closed transitions

	ChaosErrs       atomic.Uint64 // injected transient errors
	ChaosTorn       atomic.Uint64 // injected torn writes
	ChaosCorrupt    atomic.Uint64 // injected payload bit flips
	ChaosNoSpace    atomic.Uint64 // injected ErrNoSpace
	ChaosLatency    atomic.Uint64 // injected latency spikes
	ChaosLockStalls atomic.Uint64 // injected lock-acquire stalls
}

// StackCounters is a point-in-time snapshot of StackStats.
type StackCounters struct {
	RetryAttempts, Retries, RetryGiveups                           uint64
	Timeouts                                                       uint64
	BreakerTrips, BreakerRejects, BreakerProbes, BreakerRecoveries uint64
	ChaosErrs, ChaosTorn, ChaosCorrupt, ChaosNoSpace               uint64
	ChaosLatency, ChaosLockStalls                                  uint64
}

// Snapshot reads every counter.
func (s *StackStats) Snapshot() StackCounters {
	return StackCounters{
		RetryAttempts:     s.RetryAttempts.Load(),
		Retries:           s.Retries.Load(),
		RetryGiveups:      s.RetryGiveups.Load(),
		Timeouts:          s.Timeouts.Load(),
		BreakerTrips:      s.BreakerTrips.Load(),
		BreakerRejects:    s.BreakerRejects.Load(),
		BreakerProbes:     s.BreakerProbes.Load(),
		BreakerRecoveries: s.BreakerRecoveries.Load(),
		ChaosErrs:         s.ChaosErrs.Load(),
		ChaosTorn:         s.ChaosTorn.Load(),
		ChaosCorrupt:      s.ChaosCorrupt.Load(),
		ChaosNoSpace:      s.ChaosNoSpace.Load(),
		ChaosLatency:      s.ChaosLatency.Load(),
		ChaosLockStalls:   s.ChaosLockStalls.Load(),
	}
}

// retryable reports whether an error is worth another attempt: only the
// transient *UnavailableError class qualifies.
func retryable(err error) bool {
	var ue *UnavailableError
	return errors.As(err, &ue)
}

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// hardenedBackend is the hardening layer over one backend. Its circuit
// breaker trips after threshold consecutive post-retry transient failures;
// while open every object op fast-fails with ErrBreakerOpen without touching
// the backend. After cooldown the next op becomes the half-open probe: its
// success closes the breaker, its failure re-trips the full cooldown.
type hardenedBackend struct {
	inner     Backend
	retries   int           // re-attempts after the first try; 0 = none
	base      time.Duration // first backoff step
	timeout   time.Duration // per-attempt bound; 0 = none
	threshold int           // consecutive failures that trip; 0 = no breaker
	cooldown  time.Duration
	st        *StackStats
	now       func() time.Time // injectable for deterministic tests

	mu       sync.Mutex
	state    int
	fails    int  // consecutive transient failures while closed
	probing  bool // a half-open probe is in flight
	openedAt time.Time
}

// newHardened wraps inner in the hardening layer configured by opt (its
// Chaos field is the caller's business: the injector goes under the layer).
func newHardened(inner Backend, opt Options, st *StackStats) *hardenedBackend {
	h := &hardenedBackend{
		inner: inner, retries: opt.Retries, base: opt.RetryBase, timeout: opt.OpTimeout,
		threshold: opt.BreakerThreshold, cooldown: opt.BreakerCooldown,
		st: st, now: time.Now, state: breakerClosed,
	}
	if h.retries == 0 {
		h.retries = DefaultRetries
	}
	if h.base <= 0 {
		h.base = DefaultRetryBase
	}
	if h.threshold == 0 {
		h.threshold = DefaultBreakerThreshold
	}
	if h.cooldown <= 0 {
		h.cooldown = DefaultBreakerCooldown
	}
	h.retries = max(h.retries, 0)
	h.threshold = max(h.threshold, 0)
	return h
}

// run is the one op path: admission, attempts with backoff between them,
// settle. The backoff before re-attempt n (0-based) is base·2ⁿ plus jitter.
func run[T any](h *hardenedBackend, op, kind, name string, fn func() (T, error)) (T, error) {
	probe, err := h.admit()
	if err != nil {
		var zero T
		return zero, err
	}
	if h.retries > 0 {
		h.st.RetryAttempts.Add(1)
	}
	v, err := attempt(h, op, kind, name, fn)
	for n := 0; n < h.retries && retryable(err); n++ {
		time.Sleep(h.base<<uint(n) + rand.N(h.base))
		h.st.Retries.Add(1)
		v, err = attempt(h, op, kind, name, fn)
	}
	if h.retries > 0 && retryable(err) {
		h.st.RetryGiveups.Add(1)
	}
	h.settle(probe, err)
	return v, err
}

// attempt makes one try, bounded by the per-attempt timeout when one is
// set. A try that blows its budget returns *UnavailableError at once; the
// call is left to finish in the background (a hung disk cannot be cancelled
// from userspace) and hands its payload to a buffered channel nobody reads,
// so it never writes anything its caller can still see.
func attempt[T any](h *hardenedBackend, op, kind, name string, fn func() (T, error)) (T, error) {
	if h.timeout <= 0 {
		return fn()
	}
	type outcome struct {
		v   T
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := fn()
		done <- outcome{v, err}
	}()
	timer := time.NewTimer(h.timeout)
	defer timer.Stop()
	select {
	case o := <-done:
		return o.v, o.err
	case <-timer.C:
		h.st.Timeouts.Add(1)
		var zero T
		return zero, unavailable(op, kind, name, errors.New("operation timed out"))
	}
}

// admit decides whether an op may proceed. It returns ErrBreakerOpen for
// fast-fail, and probe=true when the op is the half-open probe.
func (h *hardenedBackend) admit() (probe bool, err error) {
	if h.threshold == 0 {
		return false, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.state {
	case breakerClosed:
		return false, nil
	case breakerOpen:
		if h.now().Sub(h.openedAt) < h.cooldown {
			h.st.BreakerRejects.Add(1)
			return false, ErrBreakerOpen
		}
		h.state = breakerHalfOpen
	default: // half-open
		if h.probing {
			h.st.BreakerRejects.Add(1)
			return false, ErrBreakerOpen
		}
	}
	h.probing = true
	h.st.BreakerProbes.Add(1)
	return true, nil
}

// settle records an op's outcome. Only transient unavailability counts as
// failure: ErrNotFound, ErrNoSpace and nil all prove the backend reachable,
// so any of them closes a half-open breaker. A closed breaker's failure run
// is reset by nil and ErrNotFound only: a full store refusing every write
// says nothing about its reads, which must not keep failing for free.
func (h *hardenedBackend) settle(probe bool, err error) {
	if h.threshold == 0 {
		return
	}
	failed := retryable(err)
	h.mu.Lock()
	defer h.mu.Unlock()
	if probe {
		h.probing = false
		if failed {
			h.trip()
		} else {
			h.state = breakerClosed
			h.fails = 0
			h.st.BreakerRecoveries.Add(1)
		}
		return
	}
	if h.state != breakerClosed || errors.Is(err, ErrNoSpace) {
		return // an op admitted before the trip is stale; a full store is neutral
	}
	if !failed {
		h.fails = 0
		return
	}
	if h.fails++; h.fails >= h.threshold {
		h.trip()
	}
}

// trip opens the breaker for a full cooldown. Called with mu held.
func (h *hardenedBackend) trip() {
	h.state = breakerOpen
	h.openedAt = h.now()
	h.st.BreakerTrips.Add(1)
}

// errOnly adapts an error-only op to run's payload shape.
func errOnly(err error) (struct{}, error) { return struct{}{}, err }

func (h *hardenedBackend) Get(kind, name string) ([]byte, error) {
	return run(h, "get", kind, name, func() ([]byte, error) { return h.inner.Get(kind, name) })
}

func (h *hardenedBackend) Put(kind, name string, data []byte) error {
	_, err := run(h, "put", kind, name, func() (struct{}, error) { return errOnly(h.inner.Put(kind, name, data)) })
	return err
}

func (h *hardenedBackend) Delete(kind, name string) error {
	_, err := run(h, "delete", kind, name, func() (struct{}, error) { return errOnly(h.inner.Delete(kind, name)) })
	return err
}

func (h *hardenedBackend) List(kind string) ([]Stat, error) {
	return run(h, "list", kind, "", func() ([]Stat, error) { return h.inner.List(kind) })
}

func (h *hardenedBackend) TryLock(name string) (func(), error) { return h.inner.TryLock(name) }
func (h *hardenedBackend) LockAge(name string) (time.Duration, error) {
	return h.inner.LockAge(name)
}
func (h *hardenedBackend) BreakLock(name string) error { return h.inner.BreakLock(name) }
