package persist

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// DirBackend is the local-directory Backend: results/<id>.res,
// locks/<name>.lock and meta objects at the root behind the storage
// protocol (traces/<id>.trc appears only if a trace is stored). Puts are
// atomic — temp + fsync + rename + directory fsync — so a crash can publish
// at worst nothing, and every os-level failure is classified into the typed
// taxonomy before it leaves this file: a missing object is ErrNotFound, a
// full disk is ErrNoSpace, anything else transient is *UnavailableError.
type DirBackend struct {
	dir      string
	readOnly bool
}

// NewDirBackend attaches to (and in read-write mode creates) the directory
// layout. Read-write opens sweep stale temp files left by crashed writers;
// read-only opens require the directory to exist and never write anything.
func NewDirBackend(dir string, readOnly bool) (*DirBackend, error) {
	if readOnly {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("persist: read-only cache dir %s does not exist", dir)
		}
		return &DirBackend{dir: dir, readOnly: true}, nil
	}
	for _, sub := range []string{"", "results", "locks"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
	}
	b := &DirBackend{dir: dir}
	b.sweepTemps()
	return b, nil
}

// Dir returns the backing directory.
func (b *DirBackend) Dir() string { return b.dir }

// kindDir maps an object kind to its subdirectory ("" = the root).
func kindDir(kind string) string {
	switch kind {
	case kindTrace:
		return "traces"
	case kindResult:
		return "results"
	default:
		return ""
	}
}

// kindExt maps an object kind to its file extension.
func kindExt(kind string) string {
	switch kind {
	case kindTrace:
		return traceExt
	case kindResult:
		return resultExt
	default:
		return ""
	}
}

// path returns the final file path of an object.
func (b *DirBackend) path(kind, name string) string {
	return filepath.Join(b.dir, kindDir(kind), name+kindExt(kind))
}

// lockPath returns the lock file path for a named lock.
func (b *DirBackend) lockPath(name string) string {
	return filepath.Join(b.dir, "locks", name+".lock")
}

// classify maps an os error onto the typed taxonomy.
func classify(op, kind, name string, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, os.ErrNotExist):
		return ErrNotFound
	case errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT):
		return ErrNoSpace
	default:
		return unavailable(op, kind, name, err)
	}
}

// sweepTemps removes leftovers of writers that crashed mid-put: temp files
// are always named <final>.tmp.<pid>.<seq>, and a rename that never
// happened means the object was never published.
func (b *DirBackend) sweepTemps() {
	for _, sub := range []string{".", "traces", "results"} {
		names, err := os.ReadDir(filepath.Join(b.dir, sub))
		if err != nil {
			continue
		}
		for _, de := range names {
			if strings.Contains(de.Name(), ".tmp.") {
				os.Remove(filepath.Join(b.dir, sub, de.Name()))
			}
		}
	}
}

// putSeq numbers this process's puts, so two concurrent puts of one object
// (two handles on one store, or two sweeps sharing a cache) never write
// through the same temp file.
var putSeq atomic.Uint64

// Get reads one object whole.
func (b *DirBackend) Get(kind, name string) ([]byte, error) {
	raw, err := os.ReadFile(b.path(kind, name))
	if err != nil {
		return nil, classify("get", kind, name, err)
	}
	return raw, nil
}

// Put atomically publishes one object: write a uniquely named temp, fsync it,
// rename over the final name, fsync the directory. A failure at any step
// removes the temp so nothing partial is ever visible under the final name.
// A kind's missing subdirectory (traces/, which a new store lacks) is made
// on its first put; a vanished store root is never recreated.
func (b *DirBackend) Put(kind, name string, data []byte) error {
	final := b.path(kind, name)
	tmp := fmt.Sprintf("%s.tmp.%d.%d", final, os.Getpid(), putSeq.Add(1))
	err := writeFileSync(tmp, data)
	if errors.Is(err, os.ErrNotExist) && os.Mkdir(filepath.Dir(final), 0o755) == nil {
		err = writeFileSync(tmp, data)
	}
	if err != nil {
		return classify("put", kind, name, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return classify("put", kind, name, err)
	}
	syncDir(filepath.Dir(final))
	return nil
}

// Delete removes one object; an already-absent object is a no-op.
func (b *DirBackend) Delete(kind, name string) error {
	err := os.Remove(b.path(kind, name))
	if err == nil || errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return classify("delete", kind, name, err)
}

// List enumerates one kind's resident objects, skipping in-flight temps.
func (b *DirBackend) List(kind string) ([]Stat, error) {
	names, err := os.ReadDir(filepath.Join(b.dir, kindDir(kind)))
	if err != nil {
		return nil, classify("list", kind, "", err)
	}
	ext := kindExt(kind)
	var out []Stat
	for _, de := range names {
		name, ok := strings.CutSuffix(de.Name(), ext)
		if !ok || strings.Contains(de.Name(), ".tmp.") || de.IsDir() {
			continue
		}
		if ext == "" && strings.HasSuffix(de.Name(), ".lock") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, Stat{Name: name, Bytes: info.Size(), ModTime: info.ModTime()})
	}
	return out, nil
}

// TryLock acquires the named lock via an O_EXCL lock file carrying the
// holder's pid and a random grant token. The mtime doubles as the lock's age
// for stale-steal. The release removes the file only while it still carries
// this grant's token, so a holder whose lock was broken and granted again
// cannot free the new holder's lock.
func (b *DirBackend) TryLock(name string) (func(), error) {
	path := b.lockPath(name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, ErrLockHeld
		}
		return nil, classify("lock", "", name, err)
	}
	grant := fmt.Sprintf("%d %016x\n", os.Getpid(), rand.Uint64())
	_, err = f.WriteString(grant)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return nil, classify("lock", "", name, err)
	}
	return func() {
		if held, err := os.ReadFile(path); err == nil && string(held) == grant {
			os.Remove(path)
		}
	}, nil
}

// LockAge reports how long the named lock has been held.
func (b *DirBackend) LockAge(name string) (time.Duration, error) {
	fi, err := os.Stat(b.lockPath(name))
	if err != nil {
		return 0, classify("lock", "", name, err)
	}
	return time.Since(fi.ModTime()), nil
}

// BreakLock force-releases the named lock.
func (b *DirBackend) BreakLock(name string) error {
	err := os.Remove(b.lockPath(name))
	if err == nil || errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return classify("lock", "", name, err)
}
