// The network face of the storage protocol: Server exposes any Backend
// over a small JSON/octet-stream HTTP API, so several sweep processes — on
// one machine or many — can share a single content-addressed artifact store.
//
// The API is deliberately dumb: objects move as opaque bytes (the codec CRCs
// above the protocol catch damage, exactly as they do for a local disk), and
// the only stateful part is the lock plane. Backend locks are crash-surviving
// markers with no expiry, which is the right shape for a local directory but
// wrong across a network — a client that dies silently would pin its lock
// until someone inspects the machine. The server therefore hands out *leases*
// over the backend's locks: acquiring returns an opaque lease token, the
// holder renews it periodically, and the advertised lock age is the time
// since the last renewal. A client that dies stops renewing, its lease ages
// past StaleLockAge, and any other client steals it through the ordinary
// BreakLock path — the abandoned-leader recovery story is unchanged, it just
// measures liveness instead of file mtimes.
//
//	GET    /cache/v1/                     service identity (health check)
//	GET    /cache/v1/obj/{kind}/{name}    object payload (404 when absent)
//	PUT    /cache/v1/obj/{kind}/{name}    atomic publish (507 when full)
//	DELETE /cache/v1/obj/{kind}/{name}    idempotent remove
//	GET    /cache/v1/list/{kind}          JSON [{name,bytes,mod_unix_ns}]
//	POST   /cache/v1/lock/{name}          acquire → {"lease":...} (423 held);
//	                                      with ?lease=T renews (409 lost)
//	GET    /cache/v1/lock/{name}          {"age_ns":N} (404 unheld)
//	DELETE /cache/v1/lock/{name}?lease=T  release (409 not the holder)
//	DELETE /cache/v1/lock/{name}          break (stale-lock recovery)
//	GET    /cache/v1/epoch                {"epoch":N}; with ?after=E&wait_ms=M
//	                                      long-polls until epoch > E or M ms
//
// The epoch is a monotonic change counter over the store's scheduling state:
// it bumps on every meta publish and every lock grant/release/break. Idle
// elastic workers long-poll it instead of spinning on list/lock probes —
// one cheap parked request per worker replaces a polling storm, and the
// response still carries the current epoch so a missed bump can never
// deadlock a client (it just re-polls with the newer value).
package httpstore

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rest/internal/persist"
)

// maxObjectBytes bounds one uploaded object; far above any real object (a
// result is 161 bytes, a completion marker smaller still) but small enough
// that a confused client cannot exhaust the server's memory with one
// request.
const maxObjectBytes = 256 << 20

// Server serves a persist.Backend over HTTP. Safe for concurrent use; one
// server instance owns the lease table for every lock it grants.
type Server struct {
	b   persist.Backend
	now func() time.Time // injectable for deterministic tests

	mu        sync.Mutex
	leases    map[string]*serverLease // lock name → active lease
	seq       uint64
	epoch     uint64        // scheduling-state change counter
	epochWait chan struct{} // closed and replaced on every bump
}

// serverLease is one granted lock lease: the backend lock's release hook plus
// the liveness clock its advertised age is measured against.
type serverLease struct {
	token   string
	renewed time.Time
	release func()
}

// NewServer wraps a persist.Backend for HTTP serving.
func NewServer(b persist.Backend) *Server {
	return &Server{
		b: b, now: time.Now,
		leases:    make(map[string]*serverLease),
		epochWait: make(chan struct{}),
	}
}

// SetNow injects the clock lease liveness is measured against. Tests only:
// call before serving requests, never while the server is live.
func (s *Server) SetNow(now func() time.Time) { s.now = now }

// bumpEpoch records a scheduling-state change and wakes every parked
// epoch long-poll.
func (s *Server) bumpEpoch() {
	s.mu.Lock()
	s.epoch++
	close(s.epochWait)
	s.epochWait = make(chan struct{})
	s.mu.Unlock()
}

// Register mounts the /cache/v1/ routes on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /cache/v1/{$}", s.handleRoot)
	mux.HandleFunc("GET /cache/v1/obj/{kind}/{name}", s.handleGet)
	mux.HandleFunc("PUT /cache/v1/obj/{kind}/{name}", s.handlePut)
	mux.HandleFunc("DELETE /cache/v1/obj/{kind}/{name}", s.handleObjDelete)
	mux.HandleFunc("GET /cache/v1/list/{kind}", s.handleList)
	mux.HandleFunc("POST /cache/v1/lock/{name}", s.handleLockAcquire)
	mux.HandleFunc("GET /cache/v1/lock/{name}", s.handleLockAge)
	mux.HandleFunc("DELETE /cache/v1/lock/{name}", s.handleLockDelete)
	mux.HandleFunc("GET /cache/v1/epoch", s.handleEpoch)
}

// wireStat is persist.Stat's JSON shape (ModTime as unix nanoseconds so the
// round-trip is exact and locale-free).
type wireStat struct {
	Name      string `json:"name"`
	Bytes     int64  `json:"bytes"`
	ModUnixNS int64  `json:"mod_unix_ns"`
}

// wireLease and wireAge are the lock plane's JSON responses; wireEpoch is
// the scheduling-change counter's.
type wireLease struct {
	Lease string `json:"lease"`
}
type wireAge struct {
	AgeNS int64 `json:"age_ns"`
}
type wireEpoch struct {
	Epoch uint64 `json:"epoch"`
}

// statusFor maps the typed error taxonomy onto HTTP statuses; the client
// maps them straight back, so the taxonomy survives the wire.
func statusFor(err error) int {
	switch {
	case errors.Is(err, persist.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, persist.ErrNoSpace):
		return http.StatusInsufficientStorage
	case errors.Is(err, persist.ErrLockHeld):
		return http.StatusLocked
	default:
		return http.StatusServiceUnavailable
	}
}

func (s *Server) fail(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), statusFor(err))
}

// checkKind and checkName keep the server from ever touching a path the
// backend did not define: kinds are the protocol's three namespaces, names
// are single path segments with no traversal tricks.
func checkKind(w http.ResponseWriter, kind string) bool {
	switch kind {
	case persist.KindTrace, persist.KindResult, persist.KindMeta:
		return true
	}
	http.Error(w, fmt.Sprintf("unknown object kind %q", kind), http.StatusBadRequest)
	return false
}

func checkName(w http.ResponseWriter, name string) bool {
	if name == "" || len(name) > 256 || strings.ContainsAny(name, "/\\") ||
		name == "." || name == ".." || strings.HasPrefix(name, ".") {
		http.Error(w, fmt.Sprintf("invalid object name %q", name), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.Write(raw)
}

func (s *Server) handleRoot(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"service": "rest-cache", "format_version": persist.FormatVersion})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	kind, name := r.PathValue("kind"), r.PathValue("name")
	if !checkKind(w, kind) || !checkName(w, name) {
		return
	}
	data, err := s.b.Get(kind, name)
	if err != nil {
		s.fail(w, err)
		return
	}
	// An explicit Content-Length lets the client detect torn responses (a
	// server or proxy dying mid-body) before the payload ever reaches the
	// codec layer.
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	kind, name := r.PathValue("kind"), r.PathValue("name")
	if !checkKind(w, kind) || !checkName(w, name) {
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxObjectBytes+1))
	if err != nil {
		// The client vanished mid-upload: nothing was published (the backend
		// Put below never ran), which is exactly the atomicity contract.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(data) > maxObjectBytes {
		http.Error(w, "object exceeds the server's size bound", http.StatusRequestEntityTooLarge)
		return
	}
	if err := s.b.Put(kind, name, data); err != nil {
		s.fail(w, err)
		return
	}
	if kind == persist.KindMeta {
		// Meta objects carry scheduling state (completion markers);
		// trace/result bodies do not, and skipping them keeps
		// bulk artifact traffic from waking parked pollers.
		s.bumpEpoch()
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleObjDelete(w http.ResponseWriter, r *http.Request) {
	kind, name := r.PathValue("kind"), r.PathValue("name")
	if !checkKind(w, kind) || !checkName(w, name) {
		return
	}
	if err := s.b.Delete(kind, name); err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	kind := r.PathValue("kind")
	if !checkKind(w, kind) {
		return
	}
	stats, err := s.b.List(kind)
	if err != nil {
		s.fail(w, err)
		return
	}
	out := make([]wireStat, 0, len(stats))
	for _, st := range stats {
		out = append(out, wireStat{Name: st.Name, Bytes: st.Bytes, ModUnixNS: st.ModTime.UnixNano()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, out)
}

// newToken mints an unguessable lease token. The sequence number alone makes
// tokens unique; the random suffix keeps one client from forging another's.
func (s *Server) newToken() string {
	s.seq++
	var b [8]byte
	rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	return fmt.Sprintf("%d-%s", s.seq, hex.EncodeToString(b[:]))
}

func (s *Server) handleLockAcquire(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !checkName(w, name) {
		return
	}
	if lease := r.URL.Query().Get("lease"); lease != "" {
		// Renewal: only the current holder's token resets the liveness clock.
		s.mu.Lock()
		l := s.leases[name]
		if l == nil || l.token != lease {
			s.mu.Unlock()
			http.Error(w, "lease lost", http.StatusConflict)
			return
		}
		l.renewed = s.now()
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.mu.Lock()
	if _, held := s.leases[name]; held {
		s.mu.Unlock()
		s.fail(w, persist.ErrLockHeld)
		return
	}
	s.mu.Unlock()
	release, err := s.b.TryLock(name)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.mu.Lock()
	// Two concurrent acquires both passing the map check serialize on the
	// backend lock, so at most one reaches here per grant.
	tok := s.newToken()
	s.leases[name] = &serverLease{token: tok, renewed: s.now(), release: release}
	s.mu.Unlock()
	s.bumpEpoch()
	writeJSON(w, wireLease{Lease: tok})
}

func (s *Server) handleLockAge(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !checkName(w, name) {
		return
	}
	s.mu.Lock()
	l := s.leases[name]
	var age time.Duration
	if l != nil {
		age = s.now().Sub(l.renewed)
	}
	s.mu.Unlock()
	if l != nil {
		writeJSON(w, wireAge{AgeNS: int64(age)})
		return
	}
	// No lease: delegate, so locks surviving a server restart (directory
	// lock files) still age out through the same recovery path.
	age, err := s.b.LockAge(name)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, wireAge{AgeNS: int64(age)})
}

func (s *Server) handleLockDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !checkName(w, name) {
		return
	}
	lease := r.URL.Query().Get("lease")
	s.mu.Lock()
	l := s.leases[name]
	if lease != "" && l != nil && l.token != lease {
		// Someone else holds the lock now (ours was stolen and re-granted):
		// their lease must survive our late release.
		s.mu.Unlock()
		http.Error(w, "not the holder", http.StatusConflict)
		return
	}
	delete(s.leases, name)
	s.mu.Unlock()
	if l != nil {
		l.release()
	} else if lease == "" {
		// Break with no lease on the books: clear any backend-level lock
		// (a server-restart leftover).
		if err := s.b.BreakLock(name); err != nil && !errors.Is(err, persist.ErrNotFound) {
			s.fail(w, err)
			return
		}
	}
	s.bumpEpoch()
	w.WriteHeader(http.StatusNoContent)
}

// maxEpochWait caps one long-poll; clients re-issue, so a short cap only
// costs an extra round trip, never a missed wake.
const maxEpochWait = 30 * time.Second

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	after, _ := strconv.ParseUint(q.Get("after"), 10, 64)
	waitMS, _ := strconv.ParseInt(q.Get("wait_ms"), 10, 64)
	wait := time.Duration(waitMS) * time.Millisecond
	if wait > maxEpochWait {
		wait = maxEpochWait
	}
	var deadline <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		deadline = t.C
	}
	for {
		s.mu.Lock()
		e, ch := s.epoch, s.epochWait
		s.mu.Unlock()
		if e > after || wait <= 0 {
			writeJSON(w, wireEpoch{Epoch: e})
			return
		}
		select {
		case <-ch:
		case <-deadline:
			writeJSON(w, wireEpoch{Epoch: e})
			return
		case <-r.Context().Done():
			return
		}
	}
}
