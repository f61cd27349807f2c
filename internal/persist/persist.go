// Package persist is the content-addressed result store behind the
// harness's trace cache: it makes repeated sweeps incremental across
// processes. A store is one local directory holding one small file per clean
// sweep cell — results/<id>.res, the memoized cpu.Stats and outcome checksum
// keyed by the cell's full identity (functional digest × timing config
// digest × the harness's model version) — so a repeated cell skips its
// simulation entirely. A result file is 161 bytes, and reading one costs an
// open, one read of at most 162 bytes into a buffer on the reader's stack,
// and a close: its heap allocations are the file's path, what os.Open keeps
// and the decoded CellResult.
//
// The trace codec (traceio.go: StoreTrace, LoadTrace) remains for the
// benchmark module, which times it; the harness neither writes nor reads
// traces. A store filled by an older build may still hold traces/*.trc, a
// locks/ directory and a manifest.json: nothing reads any of them, and all
// are safe to delete.
//
// Robustness contract: nothing in this package is ever allowed to turn a
// sweep into a hard failure. Every load returns one of four shapes — ErrMiss
// for an absent entry, *CorruptError for a damaged file (deleted on sight in
// read-write mode), *VersionError for a format from another era, and a
// wrapped I/O error for a file that could not be read, counted as
// unavailable — and the harness answers all of them the same way: recompute,
// and rewrite the entry. Stores are atomic (temp file, fsync, rename) and
// content-addressed, so any number of processes may share one directory.
// Only the stdlib is used.
package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// FormatVersion is the on-disk format generation, shared by the trace and
// result codecs and recorded in every file header. Bump it whenever the
// encoded byte layout changes, and every existing cache entry is cleanly
// rejected (recomputed and rewritten), never misread. A change to what the
// simulator computes does not bump it: the harness names the model in each
// result's identity instead (harness.ModelVersion).
const FormatVersion = 3

// ID is a content address: the SHA-256 digest of a canonical identity
// string. Files are named by its hex form.
type ID [sha256.Size]byte

// SumID digests a canonical identity string into an ID.
func SumID(s string) ID { return sha256.Sum256([]byte(s)) }

// String returns the hex form used in file names.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// ErrMiss reports an entry absent from the store (the ordinary cold-cache
// case, as opposed to a corrupt, version-skewed or unreadable one).
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
// format generation. It is rejected without being read further (and deleted
// in read-write mode); callers recompute exactly as on a miss.
type VersionError struct {
	Path string
	Got  uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("persist: cache file %s has format version %d (this build reads %d)",
		e.Path, e.Got, FormatVersion)
}

// Options configures Open.
type Options struct {
	// ReadOnly opens the cache without ever writing: no stores, and corrupt
	// files are reported but left in place. The directory must already
	// exist.
	ReadOnly bool
}

// Counters is a point-in-time snapshot of one handle's activity, exported to
// the harness.diskcache.* metric namespace and restbench's stderr summary.
type Counters struct {
	TraceHits, TraceMisses   uint64
	ResultHits, ResultMisses uint64
	Stores                   uint64
	Corruptions              uint64
	Unavailable              uint64 // reads, writes and deletes that failed on an I/O error
	Bytes                    uint64 // payload bytes this handle stored
}

// Cache is one process's handle on a store directory. Safe for concurrent
// use; several processes may share one directory (stores are atomic and
// content-addressed, so two writers of one entry write the same bytes).
type Cache struct {
	dir      string
	readOnly bool

	mu sync.Mutex
	c  Counters
}

// kind is one entry namespace: the subdirectory its files live in and their
// extension.
type kind struct{ dir, ext string }

var (
	traceKind  = kind{"traces", ".trc"}
	resultKind = kind{"results", ".res"}
)

// Open attaches to (and in read-write mode creates) a store directory.
// Read-write opens sweep the temp files of writers that crashed mid-put;
// read-only opens require the directory to exist and never write anything.
// A new store holds only results/: traces/ is made on the first trace put.
func Open(dir string, opt Options) (*Cache, error) {
	c := &Cache{dir: filepath.Clean(dir), readOnly: opt.ReadOnly}
	if c.readOnly {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("persist: read-only cache dir %s does not exist", dir)
		}
		return c, nil
	}
	if err := os.MkdirAll(filepath.Join(dir, resultKind.dir), 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	c.sweepTemps()
	return c, nil
}

// ReadOnly reports whether the cache rejects writes.
func (c *Cache) ReadOnly() bool { return c.readOnly }

// Counters returns a snapshot of the cache's activity.
func (c *Cache) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}

// Close ends the handle's use. Every store is durable when it returns, so
// there is nothing left to flush, and the cache remains usable after Close.
func (c *Cache) Close() error { return nil }

// count applies one update to the counters under the lock.
func (c *Cache) count(update func(*Counters)) {
	c.mu.Lock()
	update(&c.c)
	c.mu.Unlock()
}

// path returns the final file path of an entry, <dir>/<kind dir>/<hex
// id><ext>, built in one allocation.
func (c *Cache) path(k kind, id ID) string {
	var name [2 * len(id)]byte
	hex.Encode(name[:], id[:])
	var b strings.Builder
	b.Grow(len(c.dir) + 1 + len(k.dir) + 1 + len(name) + len(k.ext))
	b.WriteString(c.dir)
	b.WriteByte(filepath.Separator)
	b.WriteString(k.dir)
	b.WriteByte(filepath.Separator)
	b.Write(name[:])
	b.WriteString(k.ext)
	return b.String()
}

// sweepTemps removes leftovers of writers that crashed mid-put: temp files
// are always named <final>.tmp.<pid>.<seq>, and a rename that never
// happened means the entry was never published. Names are read in batches,
// so a large store costs one short string per entry and no sort.
func (c *Cache) sweepTemps() {
	for _, k := range []kind{traceKind, resultKind} {
		dir := filepath.Join(c.dir, k.dir)
		f, err := os.Open(dir)
		if err != nil {
			continue
		}
		for {
			names, err := f.Readdirnames(256)
			for _, name := range names {
				if strings.Contains(name, ".tmp.") {
					os.Remove(filepath.Join(dir, name))
				}
			}
			if err != nil {
				break
			}
		}
		f.Close()
	}
}

// ioFailed counts one I/O failure that is not a plain miss and returns it
// wrapped: the caller degrades it to a recompute.
func (c *Cache) ioFailed(err error) error {
	c.count(func(cc *Counters) { cc.Unavailable++ })
	return fmt.Errorf("persist: %w", err)
}

// load reads the entry at path into *raw and has decode judge it, counting
// the outcome into hit or miss (fields of c.c). An absent file is ErrMiss;
// an unreadable one is counted as unavailable; a file decode rejects is
// counted as corrupt and, in read-write mode, deleted, so the recompute that
// follows publishes a clean replacement. decode reads *raw through its own
// reference to it, which is what lets a caller's fixed buffer stay on its
// stack.
func (c *Cache) load(path string, raw *[]byte, decode func() error, hit, miss *uint64) error {
	err := readEntry(path, raw)
	switch {
	case errors.Is(err, os.ErrNotExist):
		err = ErrMiss
	case err != nil:
		err = c.ioFailed(err)
	default:
		if err = decode(); err != nil {
			c.discard(path, err)
		}
	}
	c.mu.Lock()
	if err == nil {
		*hit++
	} else {
		*miss++
	}
	c.mu.Unlock()
	return err
}

// readEntry reads the file at path into *raw and shortens *raw to the bytes
// read. A caller that knows its entry's length passes a *raw one byte
// longer: at most len(*raw) bytes are read, into it, so a longer file shows
// as a full buffer and the read allocates nothing. A nil *raw is first made
// the file's length, for an entry whose length only the file knows.
func readEntry(path string, raw *[]byte) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if *raw == nil {
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		*raw = make([]byte, fi.Size())
	}
	n := 0
	for n < len(*raw) {
		m, err := f.Read((*raw)[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	*raw = (*raw)[:n]
	return nil
}

// discard handles a file that failed validation: the error learns the
// file's path, the corruption is counted and, in read-write mode, the file
// is deleted.
func (c *Cache) discard(path string, err error) {
	var verr *VersionError
	if errors.As(err, &verr) {
		verr.Path = path
	}
	var cerr *CorruptError
	if errors.As(err, &cerr) {
		cerr.Path = path
	}
	c.count(func(cc *Counters) { cc.Corruptions++ })
	if c.readOnly {
		return
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		c.ioFailed(err)
	}
}

// putSeq numbers this process's puts, so two concurrent puts of one entry
// (two handles on one store, or two sweeps sharing a cache) never write
// through the same temp file.
var putSeq atomic.Uint64

// put atomically publishes one encoded entry and counts it: write a uniquely
// named temp, fsync it, rename it over the final name, fsync the directory.
// A failure at any step removes the temp, so nothing partial is ever visible
// under the final name. A kind's missing subdirectory (traces/, which a new
// store lacks) is made on its first put; a vanished store root is never
// recreated. A failed put is returned for the caller to ignore: the run it
// memoizes already succeeded.
func (c *Cache) put(k kind, id ID, data []byte) error {
	final := c.path(k, id)
	tmp := fmt.Sprintf("%s.tmp.%d.%d", final, os.Getpid(), putSeq.Add(1))
	err := writeFileSync(tmp, data)
	if errors.Is(err, os.ErrNotExist) && os.Mkdir(filepath.Dir(final), 0o755) == nil {
		err = writeFileSync(tmp, data)
	}
	if err == nil {
		if err = os.Rename(tmp, final); err != nil {
			os.Remove(tmp)
		}
	}
	if err != nil {
		return c.ioFailed(err)
	}
	syncDir(filepath.Dir(final))
	c.count(func(cc *Counters) {
		cc.Stores++
		cc.Bytes += uint64(len(data))
	})
	return nil
}

// writeFileSync writes data to path and fsyncs it before closing, so the
// rename that follows publishes fully durable bytes. A failed write removes
// the file.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
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
