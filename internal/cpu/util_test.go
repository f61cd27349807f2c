package cpu

import (
	"math/rand"
	"sort"
	"testing"

	"rest/internal/isa"
)

func opStore() isa.Op  { return isa.OpStore }
func opArm() isa.Op    { return isa.OpArm }
func opDisarm() isa.Op { return isa.OpDisarm }

// refSlotTable is the slot table as the model first wrote it: a separate
// cycle and count per slot. slotTable packs the two into one word, and
// slotPair keeps a single (cycle, count); the differential tests below
// hold both to it.
type refSlotTable struct {
	width uint16
	mask  uint64 // window-1; the window is a power of two so % becomes &
	cyc   []uint64
	cnt   []uint16
}

func newRefSlotTable(width int) *refSlotTable {
	const window = 8192 // must stay a power of two (mask indexing)
	return &refSlotTable{
		width: uint16(width), mask: window - 1,
		cyc: make([]uint64, window), cnt: make([]uint16, window),
	}
}

func (s *refSlotTable) reserve(at uint64) uint64 {
	for {
		idx := at & s.mask
		switch {
		case s.cyc[idx] != at:
			if s.cyc[idx] > at {
				// Future reservation occupies this index; treat as free.
				return at
			}
			s.cyc[idx] = at
			s.cnt[idx] = 1
			return at
		case s.cnt[idx] < s.width:
			s.cnt[idx]++
			return at
		default:
			at++
		}
	}
}

func testSlotTable(width int) slotTable {
	return newSlotTable(width, new([slotWindow]uint64))
}

func TestSlotTableBandwidth(t *testing.T) {
	s := testSlotTable(2)
	// Three reservations at the same cycle: third spills to the next.
	if got := s.reserve(10); got != 10 {
		t.Errorf("first = %d, want 10", got)
	}
	if got := s.reserve(10); got != 10 {
		t.Errorf("second = %d, want 10", got)
	}
	if got := s.reserve(10); got != 11 {
		t.Errorf("third = %d, want 11", got)
	}
	// Later cycle resets the count.
	if got := s.reserve(100); got != 100 {
		t.Errorf("later = %d, want 100", got)
	}
}

func TestSlotTableNeverBeforeRequest(t *testing.T) {
	s := testSlotTable(1)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		at := uint64(r.Intn(100000))
		got := s.reserve(at)
		if got < at {
			t.Fatalf("reserve(%d) = %d (before request)", at, got)
		}
	}
}

// TestSlotTableMatchesReference drives random reservations through the
// packed table and the reference, which must return the same cycle every
// time. The requests cluster, so counts fill and spill into later cycles,
// and jump by up to ten windows in both directions, so slots alias and
// future reservations are met, including cycles far above 2^32.
func TestSlotTableMatchesReference(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8} {
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			packed, ref := testSlotTable(width), newRefSlotTable(width)
			base := uint64(0)
			if seed == 4 {
				base = 1 << 40
			}
			at := base
			for i := 0; i < 200000; i++ {
				switch r.Intn(10) {
				case 0:
					at = base + uint64(r.Int63n(10*slotWindow))
				case 1:
					at += uint64(r.Intn(3 * slotWindow))
				default:
					at += uint64(r.Intn(3))
				}
				if got, want := packed.reserve(at), ref.reserve(at); got != want {
					t.Fatalf("width %d, seed %d, reservation %d: reserve(%d) = %d, reference %d",
						width, seed, i, at, got, want)
				}
			}
		}
	}
}

// TestSlotPairMatchesReference drives reservation sequences that meet
// slotPair's precondition, each request no earlier than the previous one,
// through the pair and the reference table: every returned cycle must
// agree. The first sequences request no earlier than the cycle the last
// reservation returned, as fetch and commit do. The second are the L1-D
// store port's: a store requests its commit cycle, which never falls but
// may lie below the port cycle its predecessors pushed out, so runs of up
// to SQSize reservations land a cycle or two apart and the returned cycle
// runs ahead of the requests. As in the core, a store requests only after
// the one SQSize stores before it has written (the SQ ring), which keeps
// every returned cycle within SQSize-1 cycles of its request.
func TestSlotPairMatchesReference(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8} {
		r := rand.New(rand.NewSource(int64(width)))
		pair, ref := slotPair{width: uint64(width)}, newRefSlotTable(width)
		var last uint64
		for i := 0; i < 200000; i++ {
			at := last
			switch r.Intn(8) {
			case 0:
				at += uint64(r.Intn(3 * slotWindow))
			case 1, 2:
				at += uint64(r.Intn(4))
			}
			got, want := pair.reserve(at), ref.reserve(at)
			if got != want {
				t.Fatalf("width %d, reservation %d: reserve(%d) = %d, reference %d", width, i, at, got, want)
			}
			last = got
		}
	}
	sqSize := DefaultConfig().SQSize
	for _, width := range []int{1, 2, 8} {
		r := rand.New(rand.NewSource(int64(100 + width)))
		pair, ref := slotPair{width: uint64(width)}, newRefSlotTable(width)
		sq := newRing(sqSize)
		var at, last uint64
		below := 0
		for run := 0; run < 20000; run++ {
			at += uint64(r.Intn(16))
			for k := 1 + r.Intn(sqSize); k > 0; k-- {
				if c := sq.peek(); c >= at {
					at = c + 1
				}
				if at < last {
					below++
				}
				got, want := pair.reserve(at), ref.reserve(at)
				if got != want {
					t.Fatalf("store port, width %d, run %d: reserve(%d) = %d, reference %d", width, run, at, got, want)
				}
				if got-at >= uint64(sqSize) {
					t.Fatalf("store port, width %d, run %d: reserve(%d) = %d, %d or more cycles late", width, run, at, got, sqSize)
				}
				sq.next(got)
				last = got
				at += uint64(r.Intn(2))
			}
		}
		if below == 0 {
			t.Fatalf("store port, width %d: no request fell below the last returned cycle", width)
		}
	}
}

// TestSlotPairPanicsOnEarlierRequest pins slotPair's precondition: a
// request may fall below the cycle the last reservation returned, but one
// earlier than the previous request is a caller bug.
func TestSlotPairPanicsOnEarlierRequest(t *testing.T) {
	s := slotPair{width: 1}
	for i, want := range []uint64{10, 11, 12} {
		if got := s.reserve(10); got != want {
			t.Fatalf("reservation %d at 10 = %d, want %d", i, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a reservation at 9 after a request at 10 did not panic")
		}
	}()
	s.reserve(9)
}

func TestRingFIFOConstraint(t *testing.T) {
	r := newRing(3)
	// First three allocations see zero constraints.
	for i, free := range []uint64{10, 20, 30} {
		if c := r.next(free); c != 0 {
			t.Errorf("alloc %d constraint = %d, want 0", i, c)
		}
	}
	// Fourth sees the first's free time, and so on.
	if c := r.next(40); c != 10 {
		t.Errorf("constraint = %d, want 10", c)
	}
	if c := r.peek(); c != 20 {
		t.Errorf("peek = %d, want 20", c)
	}
	if c := r.next(50); c != 20 {
		t.Errorf("constraint = %d, want 20", c)
	}
}

func TestMinHeapOrdering(t *testing.T) {
	h := &minHeap{}
	r := rand.New(rand.NewSource(9))
	var vals []uint64
	for i := 0; i < 500; i++ {
		v := uint64(r.Intn(10000))
		vals = append(vals, v)
		h.push(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i, want := range vals {
		if got := h.pop(); got != want {
			t.Fatalf("pop %d = %d, want %d", i, got, want)
		}
	}
	if h.len() != 0 {
		t.Errorf("heap not empty: %d", h.len())
	}
}

func TestMax64(t *testing.T) {
	if max64(3, 5) != 5 || max64(5, 3) != 5 || max64(4, 4) != 4 {
		t.Error("max64 broken")
	}
}

func TestScanSQSemantics(t *testing.T) {
	sq := []sqEntry{
		{addr: 0x100, size: 8, op: opStore(), dataReady: 5, writeDone: 100},
		{addr: 0x200, size: 64, op: opArm(), dataReady: 6, writeDone: 100},
	}
	// Full containment by the regular store forwards.
	fwd, conflict, armHit := scanSQ(sq, 0x100, 8, 10)
	if fwd == nil || conflict != nil || armHit {
		t.Errorf("containment: fwd=%v conflict=%v arm=%v", fwd, conflict, armHit)
	}
	// Overlap with the ARM raises.
	_, _, armHit = scanSQ(sq, 0x210, 8, 10)
	if !armHit {
		t.Error("load overlapping in-flight arm not flagged")
	}
	// Drained entries (writeDone <= now) are invisible.
	fwd, _, armHit = scanSQ(sq, 0x100, 8, 200)
	if fwd != nil || armHit {
		t.Error("drained entries still matched")
	}
	// Partial overlap conflicts.
	_, conflict, _ = scanSQ(sq, 0x104, 8, 10)
	if conflict == nil {
		t.Error("partial overlap not flagged as conflict")
	}
}

func TestScanSQDisarm(t *testing.T) {
	sq := []sqEntry{{addr: 0x300, size: 64, op: opDisarm(), writeDone: 100}}
	if !scanSQDisarm(sq, 0x300, 10) {
		t.Error("in-flight disarm not matched")
	}
	if scanSQDisarm(sq, 0x340, 10) {
		t.Error("different chunk matched")
	}
	if scanSQDisarm(sq, 0x300, 200) {
		t.Error("drained disarm matched")
	}
}

// TestNewRejectsSQPastSlotWindow pins the bound that makes the store port a
// slotPair: an SQ of slotWindow entries or more could push a store's write
// a whole window past its request.
func TestNewRejectsSQPastSlotWindow(t *testing.T) {
	New(Config{SQSize: slotWindow - 1}, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("New accepted an SQ of %d entries", slotWindow)
		}
	}()
	New(Config{SQSize: slotWindow}, nil, nil)
}
