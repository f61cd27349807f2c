// The storage fault plane: a cache *protocol* instead of a directory.
//
// Backend is the byte-level contract the content-addressed cache sits on:
// get/put/delete/list by content hash plus advisory named locks. The local
// directory store (DirBackend), the cache-server client (package
// persist/httpstore), the in-memory test fake (MemBackend) and the
// deterministic fault injector (Chaos) all implement it, and the one
// hardening layer (middleware.go) wraps any of them, so every store gets the
// same robustness guarantees. A raw backend may add the optional planes
// below (Leaser, EpochWaiter, WireCounter); the Cache discovers them by type
// assertion, so this package links no network code.
//
// The error taxonomy is the whole point. Every backend failure maps to one
// of four typed shapes, and the Cache above answers each the same way —
// degrade to recompute, never to a wrong byte or a stranded sweep:
//
//   - ErrNotFound: the object is absent. The ordinary cold-cache miss.
//   - *UnavailableError: a transient fault — I/O error, timeout, tripped
//     breaker. Retryable; after retries it still just means "miss".
//   - ErrNoSpace: the store is full. Final for this write; never retried.
//   - corruption is NOT a backend error: backends move opaque bytes, and
//     damage is caught above by the codec CRCs (*CorruptError), which is
//     what lets a hostile or torn payload never survive validation.
package persist

import (
	"errors"
	"fmt"
	"time"
)

// Object kinds a Backend stores: the protocol's three namespaces. Trace and
// result objects are named by the hex form of their content address; meta
// objects (the elastic pool's completion markers) by caller-chosen names.
const (
	KindTrace  = "trace"
	KindResult = "result"
	KindMeta   = "meta"
)

// ErrNotFound reports an object absent from a backend (the Cache translates
// it to ErrMiss at its own boundary).
var ErrNotFound = errors.New("persist: object not found")

// ErrNoSpace reports a backend out of storage space. It is final for the
// write that hit it: the hardening layer never retries it, and the Cache
// treats the store as advisory (the artifact is simply not persisted).
var ErrNoSpace = errors.New("persist: backend out of space")

// ErrLockHeld reports a TryLock that lost the race: another holder owns the
// named lock. The lock is advisory and only suppresses duplicate work.
var ErrLockHeld = errors.New("persist: lock already held")

// ErrBreakerOpen reports an operation rejected without reaching the backend
// because the hardening layer's circuit breaker is open (too many
// consecutive failures). IsUnavailable treats it as an *UnavailableError:
// the caller degrades to recompute.
var ErrBreakerOpen = errors.New("persist: circuit breaker open")

// UnavailableError is a transient backend fault: an I/O error, a timed-out
// operation, an injected chaos fault. The hardening layer retries these
// (and only these); whatever survives the retries degrades to recompute.
type UnavailableError struct {
	Op   string // "get", "put", "delete", "list", "lock"
	Kind string // object kind, "" for lock ops
	Name string // object or lock name
	Err  error  // the underlying cause
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("persist: backend unavailable: %s %s/%s: %v", e.Op, e.Kind, e.Name, e.Err)
}

func (e *UnavailableError) Unwrap() error { return e.Err }

// unavailable wraps err as an *UnavailableError.
func unavailable(op, kind, name string, err error) error {
	return &UnavailableError{Op: op, Kind: kind, Name: name, Err: err}
}

// IsUnavailable reports whether err is a transient backend fault (including
// a tripped breaker): the class of failure that can only ever cost a
// recompute, never change a result.
func IsUnavailable(err error) bool {
	var ue *UnavailableError
	return errors.As(err, &ue) || errors.Is(err, ErrBreakerOpen)
}

// Stat describes one resident backend object.
type Stat struct {
	Name    string // object name (hex content address for trace/result kinds)
	Bytes   int64
	ModTime time.Time
}

// Backend is the pluggable storage protocol under the cache. Implementations
// must be safe for concurrent use and must publish Put atomically: a reader
// sees either the whole object or ErrNotFound, never a torn intermediate
// (the chaos wrapper deliberately violates this to model crashes, which is
// exactly what the codec CRCs exist to catch).
type Backend interface {
	// Get returns the object's payload. ErrNotFound when absent;
	// *UnavailableError on transient faults.
	Get(kind, name string) ([]byte, error)
	// Put atomically publishes the payload under kind/name, replacing any
	// previous object. ErrNoSpace when the store is full.
	Put(kind, name string, data []byte) error
	// Delete removes the object; deleting an absent object is not an error.
	Delete(kind, name string) error
	// List enumerates the resident objects of one kind.
	List(kind string) ([]Stat, error)
	// TryLock acquires the advisory named lock. On success the release
	// function drops it, but only while this grant still holds it: a lock
	// broken and granted again survives the old holder's late release.
	// ErrLockHeld reports another holder. Locks are crash-surviving
	// markers, not leases: holders that die leave them behind, which is
	// what LockAge + BreakLock exist to recover from.
	TryLock(name string) (release func(), err error)
	// LockAge reports how long the named lock has been held (ErrNotFound
	// when nobody holds it) so callers can steal abandoned ones.
	LockAge(name string) (time.Duration, error)
	// BreakLock force-releases the named lock (stale-lock recovery).
	BreakLock(name string) error
}

// ErrLeaseLost reports that a lease renewal was rejected: the holder was
// presumed dead, its lock stolen and possibly re-granted. The only correct
// response is to abandon the protected work.
var ErrLeaseLost = errors.New("persist: lease lost to a stale-lock takeover")

// Lease is one held lock lease whose loss is observable: when a renewal is
// rejected (the holder's liveness clock aged out and another client stole
// the lock), Lost() becomes readable and the holder must abandon the unit
// it was protecting — publishing under a lost lease races the thief.
type Lease interface {
	// Lost is readable once the lease has been stolen. It never fires for a
	// lease released normally.
	Lost() <-chan struct{}
	// Renew refreshes the lease's liveness clock once, synchronously:
	// ErrLeaseLost once stolen, an *UnavailableError when its standing is
	// unknown.
	Renew() error
	// Release gives the lease back; best-effort and idempotent.
	Release()
}

// Leaser is a raw backend whose locks are leases: the Cache claims through
// TryLease instead of TryLock, so a claim's loss is observable.
type Leaser interface {
	TryLease(name string) (Lease, error)
}

// EpochWaiter is a raw backend with a scheduling-change counter to park on:
// EpochWait returns once the epoch exceeds after, or with the current epoch
// once max elapses.
type EpochWaiter interface {
	EpochWait(after uint64, max time.Duration) (uint64, error)
}

// WireCounter is a raw backend that reaches its store over a wire and
// counts the traffic (the persist.httpbackend.* metrics).
type WireCounter interface {
	Counters() HTTPCounters
}

// HTTPCounters is a point-in-time snapshot of a remote backend's wire
// traffic.
type HTTPCounters struct {
	Gets, Puts, Deletes, Lists uint64 // wire requests by verb
	LockOps                    uint64 // acquires + releases + breaks + age probes
	Renews                     uint64 // lease renewal attempts
	TransportErrs              uint64 // requests that died before a status arrived
	BytesIn, BytesOut          uint64 // payload bytes received / sent
}
