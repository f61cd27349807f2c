// Package httpstore is the persistent store over HTTP: a Server that
// exposes any persist.Backend under /cache/v1/, and a Backend client that
// speaks the same wire protocol. Only network builds (cmd/restnet) link it;
// persist itself discovers the client's lease, epoch and wire-counter
// planes through its optional interfaces.
//
// Backend presents a remote store as an ordinary persist.Backend, so it
// slots under the hardening layer exactly like a local directory: every
// transport or server failure surfaces as *persist.UnavailableError (the
// only class the layer retries), 404/507/423 map straight back onto the
// typed taxonomy, and lock failures stay fail-open at the Cache layer. Each
// object op is one wire request; the client keeps no copy of what it reads.
//
// The one network-only concern here is lock leases. The server grants
// leases that expire when the holder stops renewing; TryLease starts a
// background renewer that keeps the lease young until release. A killed
// process simply stops renewing and the server-side age grows until another
// client steals the lock — the same abandoned-holder recovery as local lock
// files.
package httpstore

import (
	"bytes"
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

	"rest/internal/persist"
)

// DefaultLockRenew is how often a held lock lease is refreshed. It must sit
// well under persist.Options.StaleLockAge (default 10m) so a live holder is
// never mistaken for a dead one.
const DefaultLockRenew = 15 * time.Second

// Options tunes a Backend.
type Options struct {
	// RenewEvery overrides the lock lease renewal period. Zero means
	// DefaultLockRenew; negative disables auto-renewal (tests).
	RenewEvery time.Duration
}

// Backend is a persist.Backend served by a remote Server.
type Backend struct {
	base  string // e.g. "http://127.0.0.1:7070", no trailing slash
	hc    *http.Client
	renew time.Duration
	st    httpStats
}

// httpStats are the backend's wire counters (persist.httpbackend.* in sweep
// metrics). Atomics: requests race with each other by design.
type httpStats struct {
	gets, puts, deletes, lists       atomic.Uint64
	lockOps, renews                  atomic.Uint64
	transportErrs, bytesIn, bytesOut atomic.Uint64
}

// A Backend carries every optional plane the Cache looks for.
var _ interface {
	persist.Backend
	persist.Leaser
	persist.EpochWaiter
	persist.WireCounter
} = (*Backend)(nil)

// NewBackend connects to a Server at baseURL (scheme://host[:port],
// any path prefix before /cache/v1/ is kept). It performs no I/O; the first
// request discovers whether the server is reachable.
func NewBackend(baseURL string, opt Options) (*Backend, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("httpstore: bad cache URL %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("httpstore: cache URL %q must be http(s)://host[:port]", baseURL)
	}
	renew := opt.RenewEvery
	if renew == 0 {
		renew = DefaultLockRenew
	}
	base := u.Scheme + "://" + u.Host + u.Path
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Backend{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}},
		renew: renew,
	}, nil
}

// Counters snapshots the wire traffic so far.
func (b *Backend) Counters() persist.HTTPCounters {
	return persist.HTTPCounters{
		Gets:          b.st.gets.Load(),
		Puts:          b.st.puts.Load(),
		Deletes:       b.st.deletes.Load(),
		Lists:         b.st.lists.Load(),
		LockOps:       b.st.lockOps.Load(),
		Renews:        b.st.renews.Load(),
		TransportErrs: b.st.transportErrs.Load(),
		BytesIn:       b.st.bytesIn.Load(),
		BytesOut:      b.st.bytesOut.Load(),
	}
}

// do performs one wire request and returns (status, body, nil), or a non-nil
// error when no well-formed response arrived (connection refused, reset
// mid-body, or a body shorter than its declared Content-Length — the torn
// response a dying server or proxy produces).
func (b *Backend) do(method, path string, q url.Values, body []byte) (int, []byte, error) {
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

// unavailable wraps err as a *persist.UnavailableError.
func unavailable(op, kind, name string, err error) error {
	return &persist.UnavailableError{Op: op, Kind: kind, Name: name, Err: err}
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

// Get fetches one object.
func (b *Backend) Get(kind, name string) ([]byte, error) {
	b.st.gets.Add(1)
	status, data, err := b.do(http.MethodGet, objPath(kind, name), nil, nil)
	if err != nil {
		return nil, unavailable("get", kind, name, err)
	}
	switch status {
	case http.StatusOK:
		return data, nil
	case http.StatusNotFound:
		return nil, persist.ErrNotFound
	default:
		return nil, unavailable("get", kind, name, statusErr(status, data))
	}
}

// Put publishes one object.
func (b *Backend) Put(kind, name string, data []byte) error {
	b.st.puts.Add(1)
	status, body, err := b.do(http.MethodPut, objPath(kind, name), nil, data)
	if err != nil {
		return unavailable("put", kind, name, err)
	}
	switch status {
	case http.StatusNoContent:
		return nil
	case http.StatusInsufficientStorage:
		return persist.ErrNoSpace
	default:
		return unavailable("put", kind, name, statusErr(status, body))
	}
}

// Delete removes one object; absent objects are not an error.
func (b *Backend) Delete(kind, name string) error {
	b.st.deletes.Add(1)
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
func (b *Backend) List(kind string) ([]persist.Stat, error) {
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
	out := make([]persist.Stat, 0, len(wire))
	for _, ws := range wire {
		out = append(out, persist.Stat{Name: ws.Name, Bytes: ws.Bytes, ModTime: time.Unix(0, ws.ModUnixNS)})
	}
	return out, nil
}

// TryLock acquires a lease on name and returns its Release (see TryLease).
func (b *Backend) TryLock(name string) (func(), error) {
	l, err := b.TryLease(name)
	if err != nil {
		return nil, err
	}
	return l.Release, nil
}

// lease is one held lock lease (persist.Lease) and its background renewer.
type lease struct {
	b    *Backend
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
func (b *Backend) newLease(name, tok string) *lease {
	l := &lease{
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
					if err := l.Renew(); errors.Is(err, persist.ErrLeaseLost) {
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
func (l *lease) Lost() <-chan struct{} { return l.lost }

// Renew refreshes the lease's liveness clock once, synchronously. It
// returns persist.ErrLeaseLost (and marks Lost) when the server no longer
// recognizes the token; transient failures return an Unavailable error and
// leave the lease's standing unknown — the next renewal decides.
func (l *lease) Renew() error {
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
		return persist.ErrLeaseLost
	default:
		return unavailable("renew", "", l.name, statusErr(status, data))
	}
}

// Release stops the renewer and gives the lease back (best-effort and
// idempotent: release after a steal or against a dead server must never
// blow up — the lease ages out regardless).
func (l *lease) Release() {
	l.once.Do(func() {
		close(l.stop)
		<-l.renewerDone
		l.b.st.lockOps.Add(1)
		q := url.Values{"lease": {l.tok}}
		l.b.do(http.MethodDelete, lockPath(l.name), q, nil) // best-effort
	})
}

// TryLease acquires a lease on name, for callers that need to observe its
// loss (the elastic scheduler) instead of just holding a lock. Release is
// best-effort and idempotent: after a steal or against a dead server it
// must never blow up — the lease ages out anyway.
func (b *Backend) TryLease(name string) (persist.Lease, error) {
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
		return nil, persist.ErrLockHeld
	default:
		return nil, unavailable("lock", "", name, statusErr(status, data))
	}
}

// EpochWait long-polls the server's scheduling-state change counter: it
// returns as soon as the epoch exceeds after, or with the current epoch
// once max elapses. A zero max asks without parking.
func (b *Backend) EpochWait(after uint64, max time.Duration) (uint64, error) {
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
func (b *Backend) LockAge(name string) (time.Duration, error) {
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
		return 0, persist.ErrNotFound
	default:
		return 0, unavailable("lockage", "", name, statusErr(status, data))
	}
}

// BreakLock force-releases name's lease (stale-holder recovery).
func (b *Backend) BreakLock(name string) error {
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
