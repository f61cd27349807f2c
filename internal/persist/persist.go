// Package persist is the content-addressed result store behind the
// harness's trace cache: it makes repeated sweeps incremental across
// processes. A store holds one small file per clean sweep cell —
// results/<id>.res, the memoized cpu.Stats and outcome checksum keyed by the
// cell's full identity (functional digest × timing config digest) — so a
// repeated cell skips its simulation entirely. A result file is 161 bytes.
//
// The trace codec (traceio.go: StoreTrace, LoadTrace) remains for the
// benchmark module, which times it; the harness neither writes nor reads
// traces. A store filled by an older build may still hold traces/*.trc and a
// manifest.json: nothing reads either, and both are safe to delete.
//
// Storage is pluggable: the cache sits on the Backend protocol (backend.go)
// — the local directory store by default, a cache server over HTTP
// (httpbackend.go), an in-memory fake in tests — with the chaos injector
// under it when fault injection is on, and one hardening layer over it
// (middleware.go) that gives every object op bounded retries, a per-attempt
// timeout and a circuit breaker. The backend's lock plane carries only the
// elastic sweep pool's unit claims (TryClaim).
//
// Robustness contract: nothing in this package is ever allowed to turn a
// sweep into a hard failure. Every load returns a typed error — ErrMiss for
// an absent entry, *CorruptError for a damaged file (deleted on sight in
// read-write mode), *VersionError for a format from another era,
// *UnavailableError (or ErrBreakerOpen) for a backend that could not answer
// — and the harness answers all of them the same way: recompute, and
// rewrite the entry. Stores are atomic and content-addressed, so any number
// of processes may share one store, and claims on a lock plane that cannot
// answer fail open. Only the stdlib is used.
package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// FormatVersion is the on-disk format generation, shared by the trace and
// result codecs and recorded in every file header. Bump it whenever the
// encoded byte layout changes — or whenever the simulator changes in a way
// that alters captured traces or timing results — and every existing cache
// entry is cleanly rejected (recomputed and rewritten), never misread.
const FormatVersion = 2

// ID is a content address: the SHA-256 digest of a canonical identity
// string. Files are named by its hex form.
type ID [sha256.Size]byte

// SumID digests a canonical identity string into an ID.
func SumID(s string) ID { return sha256.Sum256([]byte(s)) }

// String returns the hex form used in file names.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// ErrMiss reports an entry absent from the store (the ordinary cold-cache
// case, as opposed to a corrupt or version-skewed one).
var ErrMiss = errors.New("persist: cache miss")

// ErrReadOnly reports a store attempt on a read-only cache.
var ErrReadOnly = errors.New("persist: cache is read-only")

// CorruptError is a cache file that failed validation: truncated, a CRC
// mismatch, an impossible length, a digest that does not match its name.
// In read-write mode the offending file is deleted before the error is
// returned, so the recompute that follows rewrites a clean entry.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("persist: corrupt cache file %s: %s", e.Path, e.Reason)
}

// VersionError is a structurally sound cache file written by a different
// format generation. It is rejected without being read further; callers
// recompute exactly as on a miss.
type VersionError struct {
	Path string
	Got  uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("persist: cache file %s has format version %d (this build reads %d)",
		e.Path, e.Got, FormatVersion)
}

// Options configures Open / OpenBackend.
type Options struct {
	// ReadOnly opens the cache without ever writing: no stores, no claims,
	// and corrupt files are reported but left in place. The directory must
	// already exist.
	ReadOnly bool
	// StaleLockAge is the age past which an abandoned elastic claim (a
	// crashed worker's) is stolen (default 10m).
	StaleLockAge time.Duration

	// Chaos, when non-nil, wraps the backend with the seeded fault injector
	// (chaos.go), under the hardening layer. Test and drill use only.
	Chaos *ChaosSpec
	// Retries is the bounded retry budget per backend op beyond the first
	// attempt: 0 = DefaultRetries, negative = retries disabled.
	Retries int
	// RetryBase is the first backoff step; re-attempt n sleeps base·2ⁿ plus
	// up to base of random jitter. 0 = DefaultRetryBase.
	RetryBase time.Duration
	// OpTimeout bounds each attempt of a backend object op in wall-clock
	// time; a blown budget counts as a transient failure. 0 = no timeout
	// (the default: the local disk backend has no hang modes worth a
	// goroutine per op).
	OpTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that trips the
	// circuit breaker: 0 = DefaultBreakerThreshold, negative = no breaker.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker fast-fails before
	// half-opening for a probe. 0 = DefaultBreakerCooldown.
	BreakerCooldown time.Duration
}

// Counters is a point-in-time snapshot of one handle's activity, exported to
// the harness.diskcache.* metric namespace and restbench's stderr summary.
type Counters struct {
	TraceHits, TraceMisses   uint64
	ResultHits, ResultMisses uint64
	Stores                   uint64
	Corruptions              uint64
	LockContended            uint64 // TryClaim races lost to a live holder
	Unavailable              uint64 // ops degraded by backend unavailability
	Bytes                    uint64 // payload bytes this handle stored
}

const (
	kindTrace  = "trace"
	kindResult = "result"
)

// Cache is one process's handle on a cache store. Safe for concurrent use;
// several processes may share one store (stores are atomic and
// content-addressed, so two writers of one entry write the same bytes).
type Cache struct {
	b     Backend      // the hardening layer every op goes through
	httpb *HTTPBackend // non-nil when the raw backend is a remote cache server
	dir   string       // the directory path ("" for non-directory backends)
	opt   Options
	stack *StackStats

	mu sync.Mutex
	c  Counters
}

// Open attaches to (and in read-write mode creates) a cache directory under
// the hardening layer. Stale temporary files from crashed writers are swept
// in read-write mode.
func Open(dir string, opt Options) (*Cache, error) {
	db, err := NewDirBackend(dir, opt.ReadOnly)
	if err != nil {
		return nil, err
	}
	return OpenBackend(db, opt)
}

// OpenBackend attaches to an arbitrary Backend under the configured
// hardening layer. The backend must already be usable (OpenBackend creates
// no directories).
func OpenBackend(raw Backend, opt Options) (*Cache, error) {
	if opt.StaleLockAge <= 0 {
		opt.StaleLockAge = 10 * time.Minute
	}
	st := &StackStats{}
	b := raw
	if opt.Chaos != nil {
		b = NewChaos(raw, opt.Chaos, st)
	}
	c := &Cache{b: newHardened(b, opt, st), opt: opt, stack: st}
	if db, ok := raw.(*DirBackend); ok {
		c.dir = db.dir
	}
	c.httpb, _ = raw.(*HTTPBackend)
	return c, nil
}

// ReadOnly reports whether the cache rejects writes.
func (c *Cache) ReadOnly() bool { return c.opt.ReadOnly }

// Dir returns the cache directory ("" when the backend is not the local
// directory store).
func (c *Cache) Dir() string { return c.dir }

// Counters returns a snapshot of the cache's activity.
func (c *Cache) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}

// StackCounters returns a snapshot of the hardening layer's activity (retry,
// timeout, breaker and chaos counters).
func (c *Cache) StackCounters() StackCounters { return c.stack.Snapshot() }

// HTTPCounters returns the remote backend's wire counters; ok is false when
// the cache is not backed by an HTTP cache server.
func (c *Cache) HTTPCounters() (HTTPCounters, bool) {
	if c.httpb == nil {
		return HTTPCounters{}, false
	}
	return c.httpb.Counters(), true
}

// Close ends the handle's use. Every store is durable when it returns, so
// there is nothing left to flush, and the cache remains usable after Close.
func (c *Cache) Close() error { return nil }

// unavailableSeen counts one degraded op when err is transient backend
// unavailability (and not a plain miss).
func (c *Cache) unavailableSeen(err error) {
	if IsUnavailable(err) {
		c.mu.Lock()
		c.c.Unavailable++
		c.mu.Unlock()
	}
}

// path returns the final file path of an entry. Only meaningful for
// directory-backed caches (tests and tooling reach into the layout with it).
func (c *Cache) path(kind string, id ID) string {
	switch kind {
	case kindTrace:
		return filepath.Join(c.dir, "traces", id.String()+traceExt)
	default:
		return filepath.Join(c.dir, "results", id.String()+resultExt)
	}
}

// put publishes one encoded entry and counts it. A failed put is returned
// for the caller to ignore: the run it memoizes already succeeded.
func (c *Cache) put(kind string, id ID, data []byte) error {
	if err := c.b.Put(kind, id.String(), data); err != nil {
		c.unavailableSeen(err)
		return err
	}
	c.mu.Lock()
	c.c.Stores++
	c.c.Bytes += uint64(len(data))
	c.mu.Unlock()
	return nil
}

// discard handles a failed load: the corruption is counted and, in
// read-write mode, the damaged object is deleted so the recompute that
// follows publishes a clean replacement.
func (c *Cache) discard(kind string, id ID) {
	c.mu.Lock()
	c.c.Corruptions++
	c.mu.Unlock()
	if c.opt.ReadOnly {
		return
	}
	if err := c.b.Delete(kind, id.String()); err != nil {
		c.unavailableSeen(err)
	}
}

// --- Elastic scheduling surface ---
//
// The work-stealing sweep pool (internal/harness's elastic scheduler) needs
// three small primitives beyond the result store: claims (unit locks whose
// loss is observable), markers (tiny meta objects recording completed
// units), and a change wait (so idle workers park instead of poll-spinning).
// All three ride the backend's other planes — locks, the meta namespace, and
// the HTTP server's epoch counter — with the same fail-open posture: a plane
// that cannot answer degrades to duplicate work, never to a stall or a
// wrong byte.

// Claim is one held unit claim. Lost() is readable once the underlying
// lease has been stolen by a stale-takeover (the holder was presumed dead);
// a holder observing loss must abandon the unit without publishing its
// completion marker. Claims over backends with no lease plane (the local
// directory store) can never observe loss: Lost() blocks forever and
// staleness is judged by lock-file age alone.
type Claim struct {
	// Stolen reports that this claim was acquired by breaking a stale
	// holder's lock — the pool-level "steal" the elastic counters track.
	Stolen bool

	lost    <-chan struct{}
	renew   func() error
	release func()
}

// Lost is readable once the claim's lease has been stolen. For claims with
// no lease plane it is nil — receiving from it blocks forever, which is the
// correct select behavior.
func (cl *Claim) Lost() <-chan struct{} { return cl.lost }

// Renew refreshes the claim's liveness clock once, synchronously, returning
// ErrLeaseLost when the lease has been stolen. Claims with no lease plane
// renew trivially (nil error). Auto-renewal (when enabled on the backend)
// makes calling this optional; it exists for deterministic tests and for
// cheap between-cell loss checks.
func (cl *Claim) Renew() error {
	if cl.renew == nil {
		return nil
	}
	return cl.renew()
}

// Release gives the claim back. Idempotent and best-effort, like every
// lock release in this package.
func (cl *Claim) Release() { cl.release() }

// TryClaim attempts to claim name on the lock plane: fresh grants win,
// stale holders (age past StaleLockAge) are broken and re-acquired, fresh
// holders lose (nil, false). An unavailable lock plane fails open — the
// caller proceeds as claimant, at worst duplicating a unit's compute; the
// publication stays idempotent so bytes never differ. Read-only caches
// claim nothing and everything: there is no store to protect.
func (c *Cache) TryClaim(name string) (*Claim, bool) {
	noop := &Claim{release: func() {}}
	if c.opt.ReadOnly {
		return noop, true
	}
	cl, err := c.acquire(name)
	if err == nil {
		return cl, true
	}
	if !errors.Is(err, ErrLockHeld) {
		c.unavailableSeen(err)
		return noop, true
	}
	if age, aerr := c.b.LockAge(name); aerr == nil && age > c.opt.StaleLockAge {
		c.b.BreakLock(name)
		if cl, err := c.acquire(name); err == nil {
			cl.Stolen = true
			return cl, true
		}
	}
	c.mu.Lock()
	c.c.LockContended++
	c.mu.Unlock()
	return nil, false
}

// acquire takes one grant on the lock plane: a lease whose loss is
// observable over a cache server, a plain lock otherwise.
func (c *Cache) acquire(name string) (*Claim, error) {
	if c.httpb != nil {
		l, err := c.httpb.TryLease(name)
		if err != nil {
			return nil, err
		}
		return &Claim{lost: l.Lost(), renew: l.Renew, release: l.Release}, nil
	}
	rel, err := c.b.TryLock(name)
	if err != nil {
		return nil, err
	}
	return &Claim{release: rel}, nil
}

// PutMarker publishes a small coordination object in the meta namespace,
// outside the result store and named by the caller (content-addressed names
// make publication idempotent — two workers writing the same marker write
// the same bytes).
func (c *Cache) PutMarker(name string, data []byte) error {
	if c.opt.ReadOnly {
		return ErrReadOnly
	}
	if err := c.b.Put(kindMeta, name, data); err != nil {
		c.unavailableSeen(err)
		return err
	}
	return nil
}

// GetMarker loads one marker; ErrMiss when absent.
func (c *Cache) GetMarker(name string) ([]byte, error) {
	raw, err := c.b.Get(kindMeta, name)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil, ErrMiss
		}
		c.unavailableSeen(err)
		return nil, err
	}
	return raw, nil
}

// ListMarkers returns the sorted names of every marker with the given
// prefix. An unavailable backend returns the error (the caller's scan loop
// retries); a healthy empty store returns an empty slice.
func (c *Cache) ListMarkers(prefix string) ([]string, error) {
	stats, err := c.b.List(kindMeta)
	if err != nil {
		c.unavailableSeen(err)
		return nil, err
	}
	var names []string
	for _, st := range stats {
		if strings.HasPrefix(st.Name, prefix) {
			names = append(names, st.Name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// dirPollCap bounds one WaitChange sleep when there is no epoch plane to
// park on: a re-list every so often is the directory store's only way to
// see another process's progress.
const dirPollCap = 100 * time.Millisecond

// WaitChange parks until the store's scheduling state may have advanced
// past epoch after, or max elapses, and returns the epoch to pass next
// time. Backed by the HTTP server's long-poll when available; otherwise a
// bounded sleep whose return value always forces the caller to rescan.
func (c *Cache) WaitChange(after uint64, max time.Duration) uint64 {
	if c.httpb != nil {
		if e, err := c.httpb.EpochWait(after, max); err == nil {
			return e
		}
	}
	d := max
	if d > dirPollCap {
		d = dirPollCap
	}
	if d > 0 {
		time.Sleep(d)
	}
	return after + 1
}

// writeFileSync writes data to path and fsyncs it before closing, so the
// rename that follows publishes fully durable bytes.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Best-effort: not every platform supports it, and losing it only risks the
// entry reverting to absent, which the cache treats as a miss.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
