// Package persist is the content-addressed artifact cache behind the
// harness's trace cache: it makes repeated sweeps incremental across
// processes. It holds two tiers —
//
//   - the trace store (traces/<id>.trc): captured dynamic traces in a
//     versioned binary format (see traceio.go), keyed by a cell's functional
//     identity digest, so a later run replays a prior run's capture instead
//     of re-executing the functional simulator;
//   - the result store (results/<id>.res): memoized cpu.Stats and outcome
//     checksums keyed by the full identity (functional digest × timing
//     config digest), so a repeated cell skips even the replay.
//
// Storage is pluggable: the cache sits on the Backend protocol (backend.go)
// — the local directory store by default, an in-memory fake in tests, and a
// chaos-wrapped stack when fault injection is on — hardened by retry,
// timeout and circuit-breaker middleware (middleware.go).
//
// Robustness contract: nothing in this package is ever allowed to turn a
// sweep into a hard failure. Every load returns a typed error — ErrMiss for
// an absent entry, *CorruptError for a damaged file (deleted on sight in
// read-write mode), *VersionError for a format from another era,
// *UnavailableError (or ErrBreakerOpen) for a backend that could not answer
// — and the harness answers all of them the same way: recompute, and
// rewrite the entry. The manifest is crash-safe (write temp + fsync +
// rename; a corrupt or missing manifest is rebuilt by scanning the store),
// stores are atomic, the byte cap is enforced by least-recently-used
// eviction, and cross-process capture duplication is suppressed by advisory
// lock files that always fail open. Only the stdlib is used.
package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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

// DefaultMaxBytes is the byte cap restbench applies to a persistent cache
// unless -cache-max-bytes overrides it: 2 GiB comfortably holds the full
// experiment grid at the default scales while still bounding disk use.
const DefaultMaxBytes = 2 << 30

// Options configures Open / OpenBackend.
type Options struct {
	// MaxBytes caps the store's payload bytes; storing past it evicts
	// least-recently-used entries first. 0 = unlimited.
	MaxBytes int64
	// ReadOnly opens the cache without ever writing: no stores, no
	// evictions, no manifest rewrites, no lock files, and corrupt files are
	// reported but left in place. The directory must already exist.
	ReadOnly bool
	// LockWait bounds how long WaitUnlocked blocks on another process's
	// capture lock before giving up (default 60s).
	LockWait time.Duration
	// StaleLockAge is the age past which an abandoned lock file (a crashed
	// leader) is stolen (default 10m).
	StaleLockAge time.Duration

	// Chaos, when non-nil, wraps the backend with the seeded fault injector
	// (chaos.go). Test and drill use only.
	Chaos *ChaosSpec
	// Retries is the bounded retry budget per backend op beyond the first
	// attempt: 0 = DefaultRetries, negative = retries disabled.
	Retries int
	// RetryBase is the first backoff step; re-attempt n sleeps base·2ⁿ plus
	// up to base of seeded jitter. 0 = DefaultRetryBase.
	RetryBase time.Duration
	// RetrySeed seeds the backoff jitter (0 = 1), so hardened-path tests
	// are reproducible.
	RetrySeed uint64
	// OpTimeout bounds each backend object op's wall-clock time; a blown
	// budget degrades to a miss. 0 = no per-op timeout (the default: the
	// local disk backend has no hang modes worth a goroutine per op).
	OpTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that trips the
	// circuit breaker: 0 = DefaultBreakerThreshold, negative = no breaker.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker fast-fails before
	// half-opening for a probe. 0 = DefaultBreakerCooldown.
	BreakerCooldown time.Duration
}

// Counters is a point-in-time snapshot of the cache's activity, exported to
// the harness.diskcache.* metric namespace and restbench's stderr summary.
type Counters struct {
	TraceHits, TraceMisses   uint64
	ResultHits, ResultMisses uint64
	Stores                   uint64
	Evictions                uint64
	Corruptions              uint64
	Rejected                 uint64 // single entries larger than the whole cap
	LockWaits                uint64
	LockWaitNs               uint64 // wall-clock time spent in WaitUnlocked
	LockContended            uint64 // TryLock races lost to another holder
	Unavailable              uint64 // ops degraded by backend unavailability
	Bytes                    uint64 // resident payload bytes
	Entries                  uint64 // resident entry count
}

const (
	kindTrace  = "trace"
	kindResult = "result"

	manifestName = "manifest.json"
	manifestLock = "manifest"
)

// entry is one resident cache file's manifest record.
type entry struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	Bytes   int64  `json:"bytes"`
	LastUse int64  `json:"last_use"` // unix nanoseconds; LRU eviction order
}

func (e *entry) key() string { return e.Kind + "/" + e.ID }

// manifest is the on-disk index. It is advisory: the backend's objects are
// the truth, and Open reconciles the two (objects missing from the manifest
// are adopted, manifest rows whose object vanished are dropped), so a lost
// or corrupt manifest costs only LRU recency, never correctness.
type manifest struct {
	Version int      `json:"version"`
	Entries []*entry `json:"entries"`
}

// Cache is one process's handle on a cache store. Safe for concurrent use;
// several processes may share one directory (stores are atomic, manifest
// rewrites merge with the on-disk state under an advisory lock).
type Cache struct {
	b     Backend      // the hardened stack every op goes through
	dirb  *DirBackend  // non-nil when the raw backend is the local directory
	httpb *HTTPBackend // non-nil when the raw backend is a remote cache server
	dir   string       // the directory path ("" for non-directory backends)
	opt   Options
	stack *StackStats

	mu      sync.Mutex
	entries map[string]*entry
	total   int64
	dirty   bool // in-memory recency not yet flushed
	c       Counters
}

// Open attaches to (and in read-write mode creates) a cache directory,
// hardened by the default middleware stack. A missing or corrupt manifest is
// rebuilt from the files present; stale temporary files from crashed writers
// are swept in read-write mode.
func Open(dir string, opt Options) (*Cache, error) {
	db, err := NewDirBackend(dir, opt.ReadOnly)
	if err != nil {
		return nil, err
	}
	return openBackend(db, db, opt)
}

// OpenBackend attaches to an arbitrary Backend, hardened by the configured
// middleware stack. The backend must already be usable (OpenBackend creates
// no directories).
func OpenBackend(b Backend, opt Options) (*Cache, error) {
	db, _ := b.(*DirBackend)
	return openBackend(b, db, opt)
}

func openBackend(raw Backend, db *DirBackend, opt Options) (*Cache, error) {
	if opt.LockWait <= 0 {
		opt.LockWait = 60 * time.Second
	}
	if opt.StaleLockAge <= 0 {
		opt.StaleLockAge = 10 * time.Minute
	}
	st := &StackStats{}
	c := &Cache{
		b: hardenStack(raw, opt, st), dirb: db, opt: opt, stack: st,
		entries: make(map[string]*entry),
	}
	if db != nil {
		c.dir = db.dir
	}
	c.httpb, _ = raw.(*HTTPBackend)
	c.loadManifest()
	c.reconcile()
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
	out := c.c
	out.Bytes = uint64(c.total)
	out.Entries = uint64(len(c.entries))
	return out
}

// StackCounters returns a snapshot of the hardening stack's activity (retry,
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

// Close flushes the manifest (recency updates included). The cache remains
// usable after Close; it exists so a process's LRU observations survive it.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.opt.ReadOnly || !c.dirty {
		return nil
	}
	return c.flushManifestLocked()
}

// unavailableSeen counts one degraded op when err is transient backend
// unavailability (and not a plain miss).
func (c *Cache) unavailableSeen(err error) {
	if IsUnavailable(err) {
		c.mu.Lock()
		c.c.Unavailable++
		c.mu.Unlock()
	}
}

// loadManifest reads the manifest if it is present and sane; any failure
// just leaves the index empty for reconcile to rebuild.
func (c *Cache) loadManifest() {
	raw, err := c.b.Get(kindMeta, manifestName)
	if err != nil {
		c.unavailableSeen(err)
		return
	}
	var m manifest
	if json.Unmarshal(raw, &m) != nil || m.Version != FormatVersion {
		return
	}
	for _, e := range m.Entries {
		if e != nil && e.ID != "" && (e.Kind == kindTrace || e.Kind == kindResult) {
			c.entries[e.key()] = e
		}
	}
}

// reconcile makes the backend's objects the source of truth: rows whose
// object is gone are dropped, objects the manifest never heard of are
// adopted with their stat size and mtime recency.
func (c *Cache) reconcile() {
	seen := make(map[string]bool)
	for _, kind := range []string{kindTrace, kindResult} {
		stats, err := c.b.List(kind)
		if err != nil {
			c.unavailableSeen(err)
			continue
		}
		for _, st := range stats {
			key := kind + "/" + st.Name
			seen[key] = true
			if e, ok := c.entries[key]; ok {
				e.Bytes = st.Bytes
				continue
			}
			c.entries[key] = &entry{
				ID: st.Name, Kind: kind,
				Bytes: st.Bytes, LastUse: st.ModTime.UnixNano(),
			}
		}
	}
	c.total = 0
	for key, e := range c.entries {
		if !seen[key] {
			delete(c.entries, key)
			continue
		}
		c.total += e.Bytes
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

// touch bumps an entry's recency in memory; the update reaches disk with
// the next flush (a crash in between costs recency only).
func (c *Cache) touch(kind string, id ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[kind+"/"+id.String()]; ok {
		e.LastUse = time.Now().UnixNano()
		c.dirty = true
	}
}

// discard handles a failed load: the corruption is counted and, in
// read-write mode, the damaged object is deleted so the recompute that
// follows publishes a clean replacement.
func (c *Cache) discard(kind string, id ID) {
	c.mu.Lock()
	c.c.Corruptions++
	if c.opt.ReadOnly {
		c.mu.Unlock()
		return
	}
	key := kind + "/" + id.String()
	if e, ok := c.entries[key]; ok {
		c.total -= e.Bytes
		delete(c.entries, key)
		c.dirty = true
	}
	c.mu.Unlock()
	if err := c.b.Delete(kind, id.String()); err != nil {
		c.unavailableSeen(err)
	}
}

// admit publishes a freshly stored object into the index, evicting
// least-recently-used entries until the byte cap holds again, and flushes
// the manifest. An object larger than the whole cap is deleted instead, and
// evicts nothing. Caller must not hold mu.
func (c *Cache) admit(kind string, id ID, size int64) error {
	c.mu.Lock()
	key := kind + "/" + id.String()
	if old, ok := c.entries[key]; ok {
		// The store replaced the old object.
		c.total -= old.Bytes
		delete(c.entries, key)
	}
	if c.opt.MaxBytes > 0 && size > c.opt.MaxBytes {
		c.c.Rejected++
		c.mu.Unlock()
		c.b.Delete(kind, id.String())
		return nil
	}
	e := &entry{ID: id.String(), Kind: kind, Bytes: size, LastUse: time.Now().UnixNano()}
	c.entries[key] = e
	c.total += size
	c.c.Stores++
	var victimKinds, victimIDs []string
	if c.opt.MaxBytes > 0 {
		var victims []*entry
		for _, v := range c.entries {
			if v != e {
				victims = append(victims, v)
			}
		}
		// Oldest use first; ties broken by key so eviction order is stable.
		sort.Slice(victims, func(i, j int) bool {
			if victims[i].LastUse != victims[j].LastUse {
				return victims[i].LastUse < victims[j].LastUse
			}
			return victims[i].key() < victims[j].key()
		})
		for c.total > c.opt.MaxBytes && len(victims) > 0 {
			v := victims[0]
			victims = victims[1:]
			c.total -= v.Bytes
			delete(c.entries, v.key())
			c.c.Evictions++
			victimKinds = append(victimKinds, v.Kind)
			victimIDs = append(victimIDs, v.ID)
		}
	}
	err := c.flushManifestLocked()
	c.mu.Unlock()
	for i := range victimIDs {
		if derr := c.b.Delete(victimKinds[i], victimIDs[i]); derr != nil {
			c.unavailableSeen(derr)
		}
	}
	return err
}

// flushManifestLocked writes the index crash-safely, merging with whatever
// another process published since we last read it: union by key, newest
// recency wins, rows for vanished objects drop. The merge runs under the
// manifest lock so two flushing processes serialize instead of clobbering
// each other. Caller holds mu.
func (c *Cache) flushManifestLocked() error {
	unlock := c.lockManifest()
	defer unlock()

	merged := make(map[string]*entry, len(c.entries))
	for k, e := range c.entries {
		cp := *e
		merged[k] = &cp
	}
	if raw, err := c.b.Get(kindMeta, manifestName); err == nil {
		var disk manifest
		if json.Unmarshal(raw, &disk) == nil && disk.Version == FormatVersion {
			// Adopt rows for objects we have not seen, but only those whose
			// object actually exists (one List per kind, not a stat per row).
			exists := make(map[string]bool)
			for _, kind := range []string{kindTrace, kindResult} {
				if stats, lerr := c.b.List(kind); lerr == nil {
					for _, st := range stats {
						exists[kind+"/"+st.Name] = true
					}
				}
			}
			for _, e := range disk.Entries {
				if e == nil {
					continue
				}
				if have, ok := merged[e.key()]; ok {
					if e.LastUse > have.LastUse {
						have.LastUse = e.LastUse
					}
					continue
				}
				if exists[e.key()] {
					merged[e.key()] = e
				}
			}
		}
	}
	m := manifest{Version: FormatVersion}
	for _, e := range merged {
		m.Entries = append(m.Entries, e)
	}
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].key() < m.Entries[j].key() })
	raw, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := c.b.Put(kindMeta, manifestName, append(raw, '\n')); err != nil {
		// Caller holds mu: bump the counter directly (unavailableSeen locks).
		if IsUnavailable(err) {
			c.c.Unavailable++
		}
		return err
	}
	c.dirty = false
	return nil
}

// lockManifest serializes manifest rewrites across processes. Contention is
// rare and short (one JSON rewrite), so waiting is a tight bounded poll;
// locks older than StaleLockAge are stolen, and a lock plane that cannot
// answer fails open (the manifest put is still atomic — we only risk losing
// a merge, which self-heals at the next reconcile). Caller holds mu.
func (c *Cache) lockManifest() (unlock func()) {
	deadline := time.Now().Add(c.opt.LockWait)
	for {
		release, err := c.b.TryLock(manifestLock)
		if err == nil {
			return release
		}
		if !errors.Is(err, ErrLockHeld) {
			if IsUnavailable(err) {
				c.c.Unavailable++
			}
			return func() {}
		}
		if age, aerr := c.b.LockAge(manifestLock); aerr == nil && age > c.opt.StaleLockAge {
			c.b.BreakLock(manifestLock)
			continue
		}
		if time.Now().After(deadline) {
			return func() {}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TryLock attempts the single-flight capture lock for an identity; ok
// reports whether this process is now the leader (call release when the
// capture is stored or abandoned). A read-only cache never creates lock
// files and reports every caller a leader, since there is nothing to store.
// Locks left by crashed leaders are stolen once StaleLockAge old, and a lock
// plane that cannot answer fails open: the caller proceeds as leader, at
// worst duplicating a capture, never stalling one.
func (c *Cache) TryLock(id ID) (release func(), ok bool) {
	if c.opt.ReadOnly {
		return func() {}, true
	}
	rel, err := c.b.TryLock(id.String())
	if err == nil {
		return rel, true
	}
	if !errors.Is(err, ErrLockHeld) {
		c.unavailableSeen(err)
		return func() {}, true
	}
	if age, aerr := c.b.LockAge(id.String()); aerr == nil && age > c.opt.StaleLockAge {
		c.b.BreakLock(id.String())
		if rel, err := c.b.TryLock(id.String()); err == nil {
			return rel, true
		}
	}
	c.mu.Lock()
	c.c.LockContended++
	c.mu.Unlock()
	return nil, false
}

// WaitUnlocked blocks until another process's capture lock for id is
// released, stolen, or LockWait elapses. The caller retries its load either
// way; a timeout merely means a duplicate capture, never a wrong result. A
// lock plane that cannot answer ends the wait immediately (fail open).
func (c *Cache) WaitUnlocked(id ID) {
	start := time.Now()
	c.mu.Lock()
	c.c.LockWaits++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.c.LockWaitNs += uint64(time.Since(start))
		c.mu.Unlock()
	}()
	deadline := time.Now().Add(c.opt.LockWait)
	for time.Now().Before(deadline) {
		age, err := c.b.LockAge(id.String())
		if err != nil {
			c.unavailableSeen(err)
			return
		}
		if age > c.opt.StaleLockAge {
			c.b.BreakLock(id.String())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- Elastic scheduling surface ---
//
// The work-stealing sweep pool (internal/harness's elastic scheduler) needs
// three small primitives beyond the artifact tiers: claims (unit locks whose
// loss is observable), markers (tiny meta objects recording completed
// units), and a change wait (so idle workers park instead of poll-spinning).
// All three ride the existing planes — locks, the meta namespace, and the
// HTTP server's epoch counter — with the same fail-open posture: a plane
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
	if c.httpb != nil {
		if l, err := c.httpb.TryLease(name); err == nil {
			return &Claim{lost: l.Lost(), renew: l.Renew, release: l.Release}, true
		} else if !errors.Is(err, ErrLockHeld) {
			c.unavailableSeen(err)
			return noop, true
		}
	} else {
		if rel, err := c.b.TryLock(name); err == nil {
			return &Claim{release: rel}, true
		} else if !errors.Is(err, ErrLockHeld) {
			c.unavailableSeen(err)
			return noop, true
		}
	}
	if age, aerr := c.b.LockAge(name); aerr == nil && age > c.opt.StaleLockAge {
		c.b.BreakLock(name)
		if c.httpb != nil {
			if l, err := c.httpb.TryLease(name); err == nil {
				return &Claim{Stolen: true, lost: l.Lost(), renew: l.Renew, release: l.Release}, true
			}
		} else if rel, err := c.b.TryLock(name); err == nil {
			return &Claim{Stolen: true, release: rel}, true
		}
	}
	c.mu.Lock()
	c.c.LockContended++
	c.mu.Unlock()
	return nil, false
}

// PutMarker publishes a small coordination object in the meta namespace.
// Markers live beside the manifest: outside the artifact tiers, exempt from
// the byte cap and eviction, named by the caller (content-addressed names
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
