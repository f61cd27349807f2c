package cpu

import "fmt"

// slotWindow is the number of cycles a slotTable tracks. It must stay a
// power of two (mask indexing), and it bounds the widths a table can count.
const (
	slotWindow = 8192
	slotMask   = slotWindow - 1
)

// slotTable enforces a per-cycle bandwidth limit (issue width, cache ports)
// without a cycle-by-cycle loop. reserve(at) returns the first cycle >= at
// with a free slot and consumes it. The table is a hash-free direct-mapped
// window over recent cycles; a collision with a *future* reservation (rare,
// and only possible across > window cycles of skew) is treated as free,
// which can only under-count bandwidth pressure slightly.
//
// Each slot packs the cycle it counts and the count into one word: the
// cycle's low bits are the slot's index, so the word keeps the cycle with
// those bits cleared and the count in their place.
type slotTable struct {
	width uint64
	slots *[slotWindow]uint64
}

// newSlotTable returns a table of the given width over slots, which must
// be zero.
func newSlotTable(width int, slots *[slotWindow]uint64) slotTable {
	if width < 1 || width > slotMask {
		panic(fmt.Sprintf("cpu: slot width %d outside [1, %d]", width, slotMask))
	}
	return slotTable{width: uint64(width), slots: slots}
}

func (s *slotTable) reserve(at uint64) uint64 {
	for {
		slot := &s.slots[at&slotMask]
		tag := at &^ slotMask
		switch cur := *slot; {
		case cur&^slotMask > tag:
			// Future reservation occupies this index; treat as free.
			return at
		case cur&^slotMask < tag:
			*slot = tag | 1
			return at
		case cur&slotMask < s.width:
			*slot = cur + 1
			return at
		default:
			at++
		}
	}
}

// slotPair is a slotTable for reservations whose requests never go back in
// time: each at is no earlier than the previous request, as fetch and
// commit are (fetchReady and lastCommit only rise) and as the L1-D store
// port is (a store writes at its commit cycle). Every cycle from the
// previous request up to the last one returned is then full but that last
// one, so a reserve can only count into the last returned cycle or open a
// later one, and the whole table is that one (cycle, count) pair. A
// request earlier than the previous one is a bug in the caller, and
// panics.
type slotPair struct {
	width, req, cyc, cnt uint64
}

func (s *slotPair) reserve(at uint64) uint64 {
	if at < s.req {
		panic(fmt.Sprintf("cpu: reservation at cycle %d after a request at cycle %d", at, s.req))
	}
	s.req = at
	switch {
	case at > s.cyc:
		s.cyc, s.cnt = at, 1
	case s.cnt < s.width:
		s.cnt++
	default:
		s.cyc, s.cnt = s.cyc+1, 1
	}
	return s.cyc
}

// ring tracks the completion cycles of the last N entries of a FIFO-freed
// resource (ROB, LQ, SQ): entry i can allocate only once entry i-N has
// freed. get returns the constraint for the next allocation; set records the
// new entry's free cycle.
type ring struct {
	buf []uint64
	idx int // next slot to recycle; wraps without division (sizes like 192 aren't powers of two)
}

func newRing(n int) *ring { return &ring{buf: make([]uint64, n)} }

// next returns the cycle the oldest entry frees (0 while not full) and
// advances, recording freeAt for the new entry.
func (r *ring) next(freeAt uint64) (constraint uint64) {
	constraint = r.buf[r.idx]
	r.buf[r.idx] = freeAt
	r.idx++
	if r.idx == len(r.buf) {
		r.idx = 0
	}
	return constraint
}

// peek returns the constraint without advancing.
func (r *ring) peek() uint64 {
	return r.buf[r.idx]
}

// occupancy counts entries still allocated at cycle now (free cycle in the
// future). O(size); used only by the sampled occupancy probes, never on the
// per-instruction fast path.
func (r *ring) occupancy(now uint64) uint64 {
	var n uint64
	for _, free := range r.buf {
		if free > now {
			n++
		}
	}
	return n
}

// minHeap is a small min-heap of cycles, used for IQ occupancy (entries
// leave the IQ out of order, at issue).
type minHeap struct {
	a []uint64
}

func (h *minHeap) push(v uint64) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *minHeap) pop() uint64 {
	v := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l < last && h.a[l] < h.a[sm] {
			sm = l
		}
		if r < last && h.a[r] < h.a[sm] {
			sm = r
		}
		if sm == i {
			break
		}
		h.a[i], h.a[sm] = h.a[sm], h.a[i]
		i = sm
	}
	return v
}

// peekMin returns the minimum without removing it.
func (h *minHeap) peekMin() uint64 { return h.a[0] }

// replaceMin overwrites the minimum with v and restores heap order with a
// single hole-percolating sift-down. Equivalent to pop-then-push(v), which
// the dispatch stage does once per instruction in steady state, at roughly
// half the cost (one traversal, one write per level instead of swaps). Only
// the value multiset is observable (min extraction, occupancy), so the
// different internal layout cannot change timing results.
func (h *minHeap) replaceMin(v uint64) {
	a := h.a
	n := len(a)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && a[r] < a[l] {
			l = r
		}
		if a[l] >= v {
			break
		}
		a[i] = a[l]
		i = l
	}
	a[i] = v
}

func (h *minHeap) len() int { return len(h.a) }

// occupancy counts entries that have not yet left (issue cycle in the
// future). O(size); sampled-probe use only, like ring.occupancy.
func (h *minHeap) occupancy(now uint64) uint64 {
	var n uint64
	for _, v := range h.a {
		if v > now {
			n++
		}
	}
	return n
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
