// Package mem provides the sparse byte-addressable physical memory backing
// the simulated machine. Pages are allocated lazily so the 64-bit address
// space (code, globals, heap, shadow, stack) can be used at its natural
// addresses without reserving host memory.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PageBits selects a 4KiB page granule for the backing store.
const PageBits = 12

// PageSize is the backing-store page size in bytes.
const PageSize = 1 << PageBits

// Memory is a sparse physical memory. The zero value is not ready; use New.
// Unwritten bytes read as zero, matching zero-fill-on-demand semantics.
type Memory struct {
	pages map[uint64]*[PageSize]byte

	// Single-entry page lookup cache: accesses cluster heavily (stack walks,
	// allocator metadata, linear sweeps), so remembering the last resolved
	// page takes the map lookup off the common load/store path. lastPage is
	// nil until the first resolution; pages are never freed, so the cached
	// pointer can never go stale.
	lastPN   uint64
	lastPage *[PageSize]byte

	// Slab arena: pages are carved from multi-page slabs so materializing a
	// world costs one host allocation per slabPages pages instead of one
	// per page. The slab's backing array stays alive through the page map's
	// pointers into it; slab/slabOff only track the current carve point.
	slab    [][PageSize]byte
	slabOff int

	// Single-slot write watch (see Watch). watchFn nil keeps the write
	// paths on a one-compare fast path.
	watchLo uint64
	watchHi uint64
	watchFn func(lo, hi uint64)
}

// slabPages is how many pages one arena slab carves into (32 KiB per slab).
// A world's build touches a page or two and its run from a few pages to a
// few dozen, so a slab of 8 leaves at most 7 empty pages in a live cell
// (a slab of 32 left up to 31) while still costing one host allocation
// per 8 pages.
const slabPages = 8

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

// page returns the page containing addr, allocating it if alloc is set.
func (m *Memory) page(addr uint64, alloc bool) *[PageSize]byte {
	pn := addr >> PageBits
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	p := m.pages[pn]
	if p == nil && alloc {
		if m.slabOff == len(m.slab) {
			m.slab = make([][PageSize]byte, slabPages)
			m.slabOff = 0
		}
		p = &m.slab[m.slabOff]
		m.slabOff++
		m.pages[pn] = p
	}
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

// Byte returns the byte at addr.
func (m *Memory) Byte(addr uint64) byte {
	if p := m.page(addr, false); p != nil {
		return p[addr&(PageSize-1)]
	}
	return 0
}

// SetByte stores b at addr.
func (m *Memory) SetByte(addr uint64, b byte) {
	m.page(addr, true)[addr&(PageSize-1)] = b
	if m.watchFn != nil && addr >= m.watchLo && addr < m.watchHi {
		m.watchFn(addr, addr+1)
	}
}

// Read copies len(dst) bytes starting at addr into dst.
func (m *Memory) Read(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & (PageSize - 1)
		n := PageSize - off
		if uint64(len(dst)) < n {
			n = uint64(len(dst))
		}
		if p := m.page(addr, false); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += n
	}
}

// Write copies src into memory starting at addr.
func (m *Memory) Write(addr uint64, src []byte) {
	start, total := addr, uint64(len(src))
	for len(src) > 0 {
		off := addr & (PageSize - 1)
		n := PageSize - off
		if uint64(len(src)) < n {
			n = uint64(len(src))
		}
		copy(m.page(addr, true)[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
	if m.watchFn != nil && total > 0 && start < m.watchHi && start+total > m.watchLo {
		m.watchFn(start, start+total)
	}
}

// ReadUint reads a little-endian unsigned integer of size 1, 2, 4 or 8 bytes
// and zero-extends it.
//
// The panic on any other size is an invariant assertion, not an error path:
// sim.New validates every instruction's Size field (isa.Instr.Valid) before
// execution, and runtime-service accesses use literal sizes, so no user
// input can reach here with a bad size. TestInvalidSizePanics pins the
// assertion.
func (m *Memory) ReadUint(addr uint64, size uint8) uint64 {
	var buf [8]byte
	m.Read(addr, buf[:size])
	switch size {
	case 1:
		return uint64(buf[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(buf[:2]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(buf[:4]))
	case 8:
		return binary.LittleEndian.Uint64(buf[:8])
	default:
		panic(fmt.Sprintf("mem: invalid access size %d", size))
	}
}

// WriteUint writes the low size bytes of v little-endian at addr. The
// invalid-size panic is an invariant assertion with the same justification
// as ReadUint's: instruction validation in sim.New closes every user-input
// path to it.
func (m *Memory) WriteUint(addr uint64, size uint8, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	switch size {
	case 1, 2, 4, 8:
		m.Write(addr, buf[:size])
	default:
		panic(fmt.Sprintf("mem: invalid access size %d", size))
	}
}

// Zero clears n bytes starting at addr.
func (m *Memory) Zero(addr, n uint64) {
	if m.watchFn != nil && n > 0 && addr < m.watchHi && addr+n > m.watchLo {
		m.watchFn(addr, addr+n)
	}
	for n > 0 {
		off := addr & (PageSize - 1)
		c := PageSize - off
		if n < c {
			c = n
		}
		if p := m.page(addr, false); p != nil {
			for i := off; i < off+c; i++ {
				p[i] = 0
			}
		}
		addr += c
		n -= c
	}
}

// Equal reports whether the n bytes at addr equal pat (len(pat) == n callers'
// responsibility; compares min lengths).
func (m *Memory) Equal(addr uint64, pat []byte) bool {
	var buf [64]byte
	for len(pat) > 0 {
		n := len(pat)
		if n > len(buf) {
			n = len(buf)
		}
		m.Read(addr, buf[:n])
		for i := 0; i < n; i++ {
			if buf[i] != pat[i] {
				return false
			}
		}
		pat = pat[n:]
		addr += uint64(n)
	}
	return true
}

// Watch registers fn to observe every write overlapping [lo, hi): stores of
// any width, bulk writes and Zero all report the written byte range (the
// full range of the operation, which may extend past the watched window).
// One slot only — a second Watch replaces the first; a nil fn removes it.
// The simulator's decoded-block engine uses this as its invalidation
// chokepoint over the code image: user stores, runtime-service stores and
// tracker token writes all funnel through these paths, so no write can
// reach watched memory unobserved. The unwatched fast path is a single nil
// check per write operation.
func (m *Memory) Watch(lo, hi uint64, fn func(lo, hi uint64)) {
	m.watchLo, m.watchHi, m.watchFn = lo, hi, fn
}

// Digest returns an FNV-1a hash of the memory's logical content: every
// materialized page's number and bytes, in ascending page order, with
// all-zero pages skipped so the digest depends only on observable content
// (an unwritten page and a written-then-zeroed page hash identically).
// Equal digests across two runs mean byte-identical memory images; the
// engine differential tests compare them.
func (m *Memory) Digest() uint64 {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, pn := range pns {
		p := m.pages[pn]
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		for shift := 0; shift < 64; shift += 8 {
			h ^= (pn >> shift) & 0xFF
			h *= prime
		}
		for _, b := range p {
			h ^= uint64(b)
			h *= prime
		}
	}
	return h
}

// PageCount reports how many backing pages have been materialized. Useful for
// memory-footprint statistics (e.g. shadow-memory cost of ASan).
func (m *Memory) PageCount() int { return len(m.pages) }

// Footprint reports the materialized backing-store size in bytes.
func (m *Memory) Footprint() uint64 { return uint64(len(m.pages)) * PageSize }
