package persist

import (
	"sync"
	"time"
)

// MemBackend is an in-memory Backend: the test fake, and the reference
// implementation of the protocol's semantics (atomic puts, typed errors,
// advisory locks). An optional capacity cap makes it return ErrNoSpace
// deterministically, which is how out-of-space handling is unit-tested
// without filling a real filesystem.
type MemBackend struct {
	mu    sync.Mutex
	objs  map[string][]byte    // kind+"/"+name -> payload (copied both ways)
	mods  map[string]time.Time // kind+"/"+name -> last publish time
	locks map[string]memLock   // lock name -> current grant
	grant uint64               // grants handed out so far
	cap   int64                // total payload byte cap; 0 = unlimited
	used  int64
}

// memLock is one granted lock: its acquire time and its grant number, which
// a release must still match to take effect.
type memLock struct {
	at    time.Time
	grant uint64
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{
		objs:  make(map[string][]byte),
		mods:  make(map[string]time.Time),
		locks: make(map[string]memLock),
	}
}

// SetCapacity caps the backend's total payload bytes; a Put that would exceed
// it returns ErrNoSpace. 0 removes the cap.
func (b *MemBackend) SetCapacity(n int64) {
	b.mu.Lock()
	b.cap = n
	b.mu.Unlock()
}

// Len reports the number of resident objects of one kind.
func (b *MemBackend) Len(kind string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for k := range b.objs {
		if len(k) > len(kind) && k[:len(kind)] == kind && k[len(kind)] == '/' {
			n++
		}
	}
	return n
}

func memKey(kind, name string) string { return kind + "/" + name }

// Get returns a copy of the object's payload.
func (b *MemBackend) Get(kind, name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.objs[memKey(kind, name)]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Put publishes a copy of the payload (atomic by construction: the map swap
// happens under the lock, so readers see old bytes or new, never a mix).
func (b *MemBackend) Put(kind, name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := memKey(kind, name)
	old := int64(len(b.objs[key]))
	if b.cap > 0 && b.used-old+int64(len(data)) > b.cap {
		return ErrNoSpace
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b.objs[key] = cp
	b.mods[key] = time.Now()
	b.used += int64(len(data)) - old
	return nil
}

// Delete removes the object; absent objects are a no-op.
func (b *MemBackend) Delete(kind, name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	key := memKey(kind, name)
	b.used -= int64(len(b.objs[key]))
	delete(b.objs, key)
	delete(b.mods, key)
	return nil
}

// List enumerates one kind's resident objects.
func (b *MemBackend) List(kind string) ([]Stat, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Stat
	prefix := kind + "/"
	for k, data := range b.objs {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, Stat{Name: k[len(prefix):], Bytes: int64(len(data)), ModTime: b.mods[k]})
		}
	}
	return out, nil
}

// TryLock acquires the advisory named lock. Its release frees the lock only
// while this grant still holds it.
func (b *MemBackend) TryLock(name string) (func(), error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, held := b.locks[name]; held {
		return nil, ErrLockHeld
	}
	b.grant++
	grant := b.grant
	b.locks[name] = memLock{at: time.Now(), grant: grant}
	return func() {
		b.mu.Lock()
		if b.locks[name].grant == grant {
			delete(b.locks, name)
		}
		b.mu.Unlock()
	}, nil
}

// LockAge reports how long the named lock has been held.
func (b *MemBackend) LockAge(name string) (time.Duration, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	l, held := b.locks[name]
	if !held {
		return 0, ErrNotFound
	}
	return time.Since(l.at), nil
}

// BreakLock force-releases the named lock.
func (b *MemBackend) BreakLock(name string) error {
	b.mu.Lock()
	delete(b.locks, name)
	b.mu.Unlock()
	return nil
}
