// HTTPBackend speaks the CacheServer wire protocol and presents it as an
// ordinary Backend, so a remote artifact store slots under the hardening
// stack (breaker → retry → timeout) exactly like a local directory: every
// transport or server failure surfaces as *UnavailableError (the only class
// the retry layer touches), 404/507/423 map straight back onto the typed
// taxonomy, and lock failures stay fail-open at the Cache layer.
//
// Two network-only concerns live here rather than in the middleware:
//
//   - Single-flight gets. Parallel sweep workers routinely ask for the same
//     artifact at the same moment (every worker warming the same trace).
//     Identical concurrent Gets coalesce onto one wire request; followers
//     wait for the leader's bytes and receive a private copy. The wait time
//     is accounted (CoalescedWaitNs) so the stderr summary can show it.
//
//   - Lock leases. The server grants leases that expire when the holder
//     stops renewing; TryLock starts a background renewer that keeps the
//     lease young until release. A killed process simply stops renewing and
//     the server-side age grows until another client steals the lock — the
//     same abandoned-leader recovery as local lock files.
package persist

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLockRenew is how often a held lock lease is refreshed. It must sit
// well under Options.StaleLockAge (default 10m) so a live holder is never
// mistaken for a dead one.
const DefaultLockRenew = 15 * time.Second

// DefaultReadCacheBytes bounds the client-side read-through cache. Cell
// results are small (a sweep's worth fits in a few MiB); one default-sized
// trace block is 2 MiB, so the default holds a healthy working set without
// competing with the sweep's own memory.
const DefaultReadCacheBytes = 64 << 20

// HTTPOptions tunes an HTTPBackend.
type HTTPOptions struct {
	// Client overrides the HTTP client (nil = a pooled keep-alive client).
	Client *http.Client
	// RenewEvery overrides the lock lease renewal period. Zero means
	// DefaultLockRenew; negative disables auto-renewal (tests).
	RenewEvery time.Duration
	// ReadCacheBytes bounds the client-side read-through memory cache over
	// trace and result objects. Zero means DefaultReadCacheBytes; negative
	// disables the cache.
	ReadCacheBytes int64
}

// HTTPBackend is a Backend served by a remote CacheServer.
type HTTPBackend struct {
	base  string // e.g. "http://127.0.0.1:7070", no trailing slash
	hc    *http.Client
	renew time.Duration
	st    httpStats

	mu       sync.Mutex
	inflight map[string]*getCall // kind/name → in-progress wire Get

	// Read-through cache over immutable object kinds. Content addressing
	// makes entries immutable — a name never maps to different bytes — so
	// there is no invalidation, only LRU eviction under rcMax.
	rcMax  int64
	rcMu   sync.Mutex
	rcSize int64
	rc     map[string]*list.Element // kind/name → rcList element
	rcList *list.List               // front = most recently used
}

// rcEntry is one cached object body.
type rcEntry struct {
	key  string
	data []byte
}

// cacheableKind reports whether an object kind's bodies are safe to serve
// from memory. Meta objects (completion markers) mutate in place
// and must always cross the wire.
func cacheableKind(kind string) bool {
	return kind == kindTrace || kind == kindResult
}

// getCall is one in-flight wire Get that followers can latch onto.
type getCall struct {
	done chan struct{}
	data []byte
	err  error
}

// httpStats are the backend's wire counters (persist.httpbackend.* in sweep
// metrics). Atomics: Gets race with each other by design.
type httpStats struct {
	gets, puts, deletes, lists       atomic.Uint64
	lockOps, renews                  atomic.Uint64
	coalesced, coalescedWaitNs       atomic.Uint64
	transportErrs, bytesIn, bytesOut atomic.Uint64
	readHits, readMisses, readSaved  atomic.Uint64
}

// HTTPCounters is a point-in-time snapshot of an HTTPBackend's wire traffic.
type HTTPCounters struct {
	Gets, Puts, Deletes, Lists uint64 // wire requests by verb
	LockOps                    uint64 // acquires + releases + breaks + age probes
	Renews                     uint64 // lease renewal attempts
	Coalesced                  uint64 // Gets served from another caller's flight
	CoalescedWaitNs            uint64 // total time spent waiting on those flights
	TransportErrs              uint64 // requests that died before a status arrived
	BytesIn, BytesOut          uint64 // payload bytes received / sent
	ReadHits                   uint64 // Gets served from the read-through cache
	ReadMisses                 uint64 // cacheable Gets that had to cross the wire
	ReadSavedBytes             uint64 // payload bytes served without a wire trip
}

// NewHTTPBackend connects to a CacheServer at baseURL (scheme://host[:port],
// any path prefix before /cache/v1/ is kept). It performs no I/O; the first
// request discovers whether the server is reachable.
func NewHTTPBackend(baseURL string, opt HTTPOptions) (*HTTPBackend, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("persist: bad cache URL %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("persist: cache URL %q must be http(s)://host[:port]", baseURL)
	}
	hc := opt.Client
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	renew := opt.RenewEvery
	if renew == 0 {
		renew = DefaultLockRenew
	}
	rcMax := opt.ReadCacheBytes
	if rcMax == 0 {
		rcMax = DefaultReadCacheBytes
	}
	if rcMax < 0 {
		rcMax = 0
	}
	base := u.Scheme + "://" + u.Host + u.Path
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &HTTPBackend{
		base:     base,
		hc:       hc,
		renew:    renew,
		inflight: make(map[string]*getCall),
		rcMax:    rcMax,
		rc:       make(map[string]*list.Element),
		rcList:   list.New(),
	}, nil
}

// Counters snapshots the wire traffic so far.
func (b *HTTPBackend) Counters() HTTPCounters {
	return HTTPCounters{
		Gets:            b.st.gets.Load(),
		Puts:            b.st.puts.Load(),
		Deletes:         b.st.deletes.Load(),
		Lists:           b.st.lists.Load(),
		LockOps:         b.st.lockOps.Load(),
		Renews:          b.st.renews.Load(),
		Coalesced:       b.st.coalesced.Load(),
		CoalescedWaitNs: b.st.coalescedWaitNs.Load(),
		TransportErrs:   b.st.transportErrs.Load(),
		BytesIn:         b.st.bytesIn.Load(),
		BytesOut:        b.st.bytesOut.Load(),
		ReadHits:        b.st.readHits.Load(),
		ReadMisses:      b.st.readMisses.Load(),
		ReadSavedBytes:  b.st.readSaved.Load(),
	}
}

// do performs one wire request and returns (status, body, nil), or a non-nil
// error when no well-formed response arrived (connection refused, reset
// mid-body, or a body shorter than its declared Content-Length — the torn
// response a dying server or proxy produces).
func (b *HTTPBackend) do(method, path string, q url.Values, body []byte) (int, []byte, error) {
	u := b.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		b.st.transportErrs.Add(1)
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		b.st.transportErrs.Add(1)
		return 0, nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.ContentLength >= 0 && int64(len(data)) != resp.ContentLength {
		b.st.transportErrs.Add(1)
		return 0, nil, fmt.Errorf("torn response: read %d of %d declared bytes", len(data), resp.ContentLength)
	}
	b.st.bytesIn.Add(uint64(len(data)))
	b.st.bytesOut.Add(uint64(len(body)))
	return resp.StatusCode, data, nil
}

// statusErr summarizes an unexpected status for the Unavailable cause chain.
func statusErr(status int, body []byte) error {
	msg := string(bytes.TrimSpace(body))
	if len(msg) > 120 {
		msg = msg[:120]
	}
	if msg == "" {
		return fmt.Errorf("server returned %d", status)
	}
	return fmt.Errorf("server returned %d: %s", status, msg)
}

func objPath(kind, name string) string {
	return "/cache/v1/obj/" + url.PathEscape(kind) + "/" + url.PathEscape(name)
}

func lockPath(name string) string {
	return "/cache/v1/lock/" + url.PathEscape(name)
}

// rcGet returns a private copy of a cached body, or nil on miss. The copy
// keeps the resident slice unreachable from callers: whatever the codec
// layer does with its bytes, the cache stays poison-free.
func (b *HTTPBackend) rcGet(key string) []byte {
	if b.rcMax == 0 {
		return nil
	}
	b.rcMu.Lock()
	defer b.rcMu.Unlock()
	el, ok := b.rc[key]
	if !ok {
		return nil
	}
	b.rcList.MoveToFront(el)
	data := el.Value.(*rcEntry).data
	out := make([]byte, len(data))
	copy(out, data)
	return out
}

// rcPut caches a private copy of body under key, evicting LRU entries to
// stay under the byte bound. Oversized objects simply aren't cached.
func (b *HTTPBackend) rcPut(key string, body []byte) {
	if b.rcMax == 0 || int64(len(body)) > b.rcMax {
		return
	}
	data := make([]byte, len(body))
	copy(data, body)
	b.rcMu.Lock()
	defer b.rcMu.Unlock()
	if _, ok := b.rc[key]; ok {
		return // content-addressed: an existing entry is already these bytes
	}
	b.rc[key] = b.rcList.PushFront(&rcEntry{key: key, data: data})
	b.rcSize += int64(len(data))
	for b.rcSize > b.rcMax {
		el := b.rcList.Back()
		ent := el.Value.(*rcEntry)
		b.rcList.Remove(el)
		delete(b.rc, ent.key)
		b.rcSize -= int64(len(ent.data))
	}
}

// rcDrop invalidates one cached body. The artifact tiers are content-
// addressed, so a same-name overwrite with different bytes "cannot happen" —
// but the Backend contract allows it, and this client's own writes are free
// to keep the memory tier honest.
func (b *HTTPBackend) rcDrop(key string) {
	if b.rcMax == 0 {
		return
	}
	b.rcMu.Lock()
	defer b.rcMu.Unlock()
	if el, ok := b.rc[key]; ok {
		ent := el.Value.(*rcEntry)
		b.rcList.Remove(el)
		delete(b.rc, ent.key)
		b.rcSize -= int64(len(ent.data))
	}
}

// Get fetches one object — from the read-through cache when the kind is
// immutable, coalescing concurrent identical wire requests otherwise.
func (b *HTTPBackend) Get(kind, name string) ([]byte, error) {
	key := kind + "/" + name
	if cacheableKind(kind) {
		if data := b.rcGet(key); data != nil {
			b.st.readHits.Add(1)
			b.st.readSaved.Add(uint64(len(data)))
			return data, nil
		}
		b.st.readMisses.Add(1)
	}
	b.mu.Lock()
	if c, ok := b.inflight[key]; ok {
		b.mu.Unlock()
		b.st.coalesced.Add(1)
		start := time.Now()
		<-c.done
		b.st.coalescedWaitNs.Add(uint64(time.Since(start)))
		if c.err != nil {
			return nil, c.err
		}
		out := make([]byte, len(c.data))
		copy(out, c.data)
		return out, nil
	}
	c := &getCall{done: make(chan struct{})}
	b.inflight[key] = c
	b.mu.Unlock()

	c.data, c.err = b.getWire(kind, name)
	b.mu.Lock()
	delete(b.inflight, key)
	b.mu.Unlock()
	close(c.done)
	if c.err == nil && cacheableKind(kind) {
		b.rcPut(key, c.data)
	}
	// The leader keeps the original slice; only followers copy.
	return c.data, c.err
}

func (b *HTTPBackend) getWire(kind, name string) ([]byte, error) {
	b.st.gets.Add(1)
	status, data, err := b.do(http.MethodGet, objPath(kind, name), nil, nil)
	if err != nil {
		return nil, unavailable("get", kind, name, err)
	}
	switch status {
	case http.StatusOK:
		return data, nil
	case http.StatusNotFound:
		return nil, ErrNotFound
	default:
		return nil, unavailable("get", kind, name, statusErr(status, data))
	}
}

// Put publishes one object.
func (b *HTTPBackend) Put(kind, name string, data []byte) error {
	b.st.puts.Add(1)
	if cacheableKind(kind) {
		b.rcDrop(kind + "/" + name)
	}
	status, body, err := b.do(http.MethodPut, objPath(kind, name), nil, data)
	if err != nil {
		return unavailable("put", kind, name, err)
	}
	switch status {
	case http.StatusNoContent:
		return nil
	case http.StatusInsufficientStorage:
		return ErrNoSpace
	default:
		return unavailable("put", kind, name, statusErr(status, body))
	}
}

// Delete removes one object; absent objects are not an error.
func (b *HTTPBackend) Delete(kind, name string) error {
	b.st.deletes.Add(1)
	if cacheableKind(kind) {
		b.rcDrop(kind + "/" + name)
	}
	status, body, err := b.do(http.MethodDelete, objPath(kind, name), nil, nil)
	if err != nil {
		return unavailable("delete", kind, name, err)
	}
	switch status {
	case http.StatusNoContent, http.StatusNotFound:
		return nil
	default:
		return unavailable("delete", kind, name, statusErr(status, body))
	}
}

// List enumerates one kind.
func (b *HTTPBackend) List(kind string) ([]Stat, error) {
	b.st.lists.Add(1)
	status, data, err := b.do(http.MethodGet, "/cache/v1/list/"+url.PathEscape(kind), nil, nil)
	if err != nil {
		return nil, unavailable("list", kind, "", err)
	}
	if status != http.StatusOK {
		return nil, unavailable("list", kind, "", statusErr(status, data))
	}
	var wire []wireStat
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, unavailable("list", kind, "", fmt.Errorf("malformed listing: %w", err))
	}
	out := make([]Stat, 0, len(wire))
	for _, ws := range wire {
		out = append(out, Stat{Name: ws.Name, Bytes: ws.Bytes, ModTime: time.Unix(0, ws.ModUnixNS)})
	}
	return out, nil
}

// TryLock acquires a lease on name. On success the returned release function
// stops the renewer and releases the lease (best-effort: release after a
// steal or a dead server must never blow up — the lease ages out anyway).
func (b *HTTPBackend) TryLock(name string) (func(), error) {
	b.st.lockOps.Add(1)
	status, data, err := b.do(http.MethodPost, lockPath(name), nil, nil)
	if err != nil {
		return nil, unavailable("lock", "", name, err)
	}
	switch status {
	case http.StatusOK:
		var wl wireLease
		if json.Unmarshal(data, &wl) != nil || wl.Lease == "" {
			return nil, unavailable("lock", "", name, errors.New("malformed lease grant"))
		}
		return b.holdLease(name, wl.Lease), nil
	case http.StatusLocked:
		return nil, ErrLockHeld
	default:
		return nil, unavailable("lock", "", name, statusErr(status, data))
	}
}

// holdLease starts the background renewer (when enabled) and returns the
// idempotent release hook.
func (b *HTTPBackend) holdLease(name, lease string) func() {
	return b.newLease(name, lease).Release
}

// ErrLeaseLost reports that a lease renewal was rejected: the holder was
// presumed dead, its lock stolen and possibly re-granted. The only correct
// response is to abandon the protected work.
var ErrLeaseLost = errors.New("persist: lease lost to a stale-lock takeover")

// Lease is one held lock lease whose loss is observable: when a renewal is
// rejected (our liveness clock aged out and another client stole the lock),
// Lost() becomes readable and the holder must abandon the unit it was
// protecting — publishing under a lost lease races the thief.
type Lease struct {
	b    *HTTPBackend
	name string
	tok  string

	stop        chan struct{}
	renewerDone chan struct{}
	lost        chan struct{}
	lostOnce    sync.Once
	once        sync.Once
}

// newLease wires up the lease bookkeeping and, when auto-renewal is enabled,
// its background renewer.
func (b *HTTPBackend) newLease(name, tok string) *Lease {
	l := &Lease{
		b: b, name: name, tok: tok,
		stop:        make(chan struct{}),
		renewerDone: make(chan struct{}),
		lost:        make(chan struct{}),
	}
	if b.renew > 0 {
		go func() {
			defer close(l.renewerDone)
			t := time.NewTicker(b.renew)
			defer t.Stop()
			for {
				select {
				case <-l.stop:
					return
				case <-t.C:
					if err := l.Renew(); errors.Is(err, ErrLeaseLost) {
						return
					}
				}
			}
		}()
	} else {
		close(l.renewerDone)
	}
	return l
}

// Lost is readable once the lease has been stolen. It never fires for a
// lease released normally.
func (l *Lease) Lost() <-chan struct{} { return l.lost }

// Renew refreshes the lease's liveness clock once, synchronously. It
// returns ErrLeaseLost (and marks Lost) when the server no longer
// recognizes the token; transient failures return an Unavailable error and
// leave the lease's standing unknown — the next renewal decides.
func (l *Lease) Renew() error {
	l.b.st.renews.Add(1)
	q := url.Values{"lease": {l.tok}}
	status, data, err := l.b.do(http.MethodPost, lockPath(l.name), q, nil)
	if err != nil {
		return unavailable("renew", "", l.name, err)
	}
	switch status {
	case http.StatusNoContent:
		return nil
	case http.StatusConflict:
		l.lostOnce.Do(func() { close(l.lost) })
		return ErrLeaseLost
	default:
		return unavailable("renew", "", l.name, statusErr(status, data))
	}
}

// Release stops the renewer and gives the lease back (best-effort and
// idempotent: release after a steal or against a dead server must never
// blow up — the lease ages out regardless).
func (l *Lease) Release() {
	l.once.Do(func() {
		close(l.stop)
		<-l.renewerDone
		l.b.st.lockOps.Add(1)
		q := url.Values{"lease": {l.tok}}
		l.b.do(http.MethodDelete, lockPath(l.name), q, nil) // best-effort
	})
}

// TryLease is TryLock with the lease exposed, for callers that need to
// observe loss (the elastic scheduler) instead of just holding a lock.
func (b *HTTPBackend) TryLease(name string) (*Lease, error) {
	b.st.lockOps.Add(1)
	status, data, err := b.do(http.MethodPost, lockPath(name), nil, nil)
	if err != nil {
		return nil, unavailable("lock", "", name, err)
	}
	switch status {
	case http.StatusOK:
		var wl wireLease
		if json.Unmarshal(data, &wl) != nil || wl.Lease == "" {
			return nil, unavailable("lock", "", name, errors.New("malformed lease grant"))
		}
		return b.newLease(name, wl.Lease), nil
	case http.StatusLocked:
		return nil, ErrLockHeld
	default:
		return nil, unavailable("lock", "", name, statusErr(status, data))
	}
}

// EpochWait long-polls the server's scheduling-state change counter: it
// returns as soon as the epoch exceeds after, or with the current epoch
// once max elapses. A zero max asks without parking.
func (b *HTTPBackend) EpochWait(after uint64, max time.Duration) (uint64, error) {
	q := url.Values{
		"after":   {strconv.FormatUint(after, 10)},
		"wait_ms": {strconv.FormatInt(max.Milliseconds(), 10)},
	}
	status, data, err := b.do(http.MethodGet, "/cache/v1/epoch", q, nil)
	if err != nil {
		return after, unavailable("epoch", "", "", err)
	}
	if status != http.StatusOK {
		return after, unavailable("epoch", "", "", statusErr(status, data))
	}
	var we wireEpoch
	if err := json.Unmarshal(data, &we); err != nil {
		return after, unavailable("epoch", "", "", fmt.Errorf("malformed epoch: %w", err))
	}
	return we.Epoch, nil
}

// LockAge reports how long the current lease on name has gone unrenewed.
func (b *HTTPBackend) LockAge(name string) (time.Duration, error) {
	b.st.lockOps.Add(1)
	status, data, err := b.do(http.MethodGet, lockPath(name), nil, nil)
	if err != nil {
		return 0, unavailable("lockage", "", name, err)
	}
	switch status {
	case http.StatusOK:
		var wa wireAge
		if err := json.Unmarshal(data, &wa); err != nil {
			return 0, unavailable("lockage", "", name, fmt.Errorf("malformed age: %w", err))
		}
		return time.Duration(wa.AgeNS), nil
	case http.StatusNotFound:
		return 0, ErrNotFound
	default:
		return 0, unavailable("lockage", "", name, statusErr(status, data))
	}
}

// BreakLock force-releases name's lease (stale-holder recovery).
func (b *HTTPBackend) BreakLock(name string) error {
	b.st.lockOps.Add(1)
	status, data, err := b.do(http.MethodDelete, lockPath(name), nil, nil)
	if err != nil {
		return unavailable("breaklock", "", name, err)
	}
	switch status {
	case http.StatusNoContent, http.StatusNotFound:
		return nil
	default:
		return unavailable("breaklock", "", name, statusErr(status, data))
	}
}
