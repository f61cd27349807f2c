package trace

import (
	"sync"

	"rest/internal/isa"
)

// Capture/replay: a Recorder packs a dynamic trace into struct-of-arrays
// storage while it streams past, and a Replayer feeds it back through the
// timing model without re-running the functional simulator.
//
// Replay must be bit-exact, which is subtle in one place: the L1-D fill-time
// content detector consults the architectural token state (which chunks of a
// line currently hold the token) while the trace streams. During a live run
// that state lives in core.TokenTracker; during replay no machine exists, so
// the Replayer reconstructs it as a shadow armed set driven by the ARM/DISARM
// entries of the trace itself. The reconstruction is valid because of the
// content/tracker invariant (a chunk holds the token value iff it is in the
// armed set — see core.TokenTracker) and because the functional machine runs
// ahead of the timing model by exactly one batch: Machine.Next executes one
// user instruction fully (including any runtime service it calls) before the
// pipeline sees the batch's first entry. The Replayer mirrors that lookahead:
// entering a batch — a KindUser entry plus its trailing KindRuntime micro-ops
// — it applies every non-faulting ARM/DISARM of the whole batch to the shadow
// set before yielding the batch's first entry. TestReplayerTokenShadow and
// the harness replay differential tests pin the equivalence.

// lineBytes is the cache line size the token shadow is reconstructed at
// (same 64-byte geometry as core.LineBytes/cache.LineBytes).
const lineBytes = 64

// EntryBytes is the Recorder's storage cost per entry: a packed recEntry
// (three uint64 words plus seven bytes, padded to alignment). Seq is not
// stored — it equals the entry's index. A byte limit of L holds L/EntryBytes
// entries.
const EntryBytes = 32

const (
	flagTaken  = 1 << 0
	flagFaults = 1 << 1
)

// Recorder storage is a list of fixed-size column blocks rather than flat
// slices: appends never copy what is already recorded (flat columns re-copy
// the whole multi-megabyte trace every time append outgrows its backing
// array, which dominated capture cost), and indexing is a shift and a mask.
// The block is sized so the offset is provably in range after masking, which
// also lets the compiler drop bounds checks on the hot replay path.
const (
	blockShift   = 16
	blockEntries = 1 << blockShift
	blockMask    = blockEntries - 1
)

// recEntry is the packed stored form of one Entry (32 bytes; Seq is implied
// by position, Taken/Faults fold into flags). A block appends with a single
// struct store and replays with a single struct load, where split columns
// cost ten scattered accesses per entry.
type recEntry struct {
	pc, addr, target                     uint64
	op, kind, dst, src1, src2, sz, flags uint8
}

type recBlock [blockEntries]recEntry

// blockPool recycles the 2 MiB blocks across captures: a sweep that captures
// dozens of traces otherwise pays fresh-page zeroing for every one. Blocks
// come back dirty, which is safe — every entry slot at index < Len() is
// written before it can be read, and slots past Len() are never read.
var blockPool = sync.Pool{New: func() any { return new(recBlock) }}

// Recorder captures a dynamic trace in compact struct-of-arrays form. Append
// it entries directly, drain a Reader into it with AppendFrom, or splice it
// into a streaming run with Tee. A byte limit (SetLimit) turns runaway
// captures into an explicit Overflowed state instead of unbounded memory.
// The zero value records with no token shadow and no limit; use NewRecorder
// to configure both.
type Recorder struct {
	tokenWidth uint64
	limit      uint64
	limitN     int // limit in entries (limit/EntryBytes); 0 = unlimited
	overflowed bool

	n      int
	blocks []*recBlock

	// Effect index, built during capture for REST traces (tokenWidth != 0):
	// the positions of the batches whose non-faulting ARM/DISARM entries
	// change the replay token shadow, with the effects themselves hoisted
	// into a side list. Replay then never scans the trace for effects — it
	// jumps from one indexed batch start to the next and applies the ops
	// directly (see Replayer.syncBatch).
	curBatch   int        // start index of the batch currently being appended
	effBatches []effBatch // ascending by pos; ranges into effOps
	effOps     []effOp
}

// effBatch marks one effect-carrying batch: pos is the batch's start index in
// the trace, end is the exclusive upper bound of its ops in effOps (its lower
// bound is the previous effBatch's end).
type effBatch struct {
	pos, end int
}

// effOp is one shadow mutation: arm (set) or disarm (clear) of the chunk at
// addr.
type effOp struct {
	addr uint64
	arm  bool
}

// NewRecorder returns a Recorder for a trace whose ARM/DISARM entries operate
// on tokenWidth-byte chunks (0 for traces from non-REST worlds) and that
// refuses to grow past limitBytes of column storage (0 = unlimited).
func NewRecorder(tokenWidth uint64, limitBytes uint64) *Recorder {
	return &Recorder{tokenWidth: tokenWidth, limit: limitBytes, limitN: int(limitBytes / EntryBytes)}
}

// TokenWidth reports the token width the trace was recorded under (0 when
// the source world had no REST hardware).
func (r *Recorder) TokenWidth() uint64 { return r.tokenWidth }

// Len reports how many entries are recorded.
func (r *Recorder) Len() int { return r.n }

// Bytes reports the column storage the recorded entries occupy.
func (r *Recorder) Bytes() uint64 { return uint64(r.n) * EntryBytes }

// Overflowed reports whether a byte limit stopped the capture; an overflowed
// Recorder has dropped its contents and ignores further Appends.
func (r *Recorder) Overflowed() bool { return r.overflowed }

// Append records one entry. Entries must arrive in stream order; Seq is not
// stored (it is always the entry's index, which is how Machine assigns it).
func (r *Recorder) Append(e Entry) {
	if r.overflowed {
		return
	}
	if r.limitN != 0 && r.n >= r.limitN {
		// Drop everything: a partial trace must never be replayed, and
		// keeping the blocks would defeat the point of the limit.
		r.Release()
		r.overflowed = true
		return
	}
	var fl uint8
	if e.Taken {
		fl |= flagTaken
	}
	if e.Faults {
		fl |= flagFaults
	}
	if e.Kind == KindUser {
		r.curBatch = r.n
	}
	if r.tokenWidth != 0 && !e.Faults && (e.Op == isa.OpArm || e.Op == isa.OpDisarm) {
		if k := len(r.effBatches) - 1; k >= 0 && r.effBatches[k].pos == r.curBatch {
			r.effBatches[k].end++
		} else {
			r.effBatches = append(r.effBatches, effBatch{pos: r.curBatch, end: len(r.effOps) + 1})
		}
		r.effOps = append(r.effOps, effOp{addr: e.Addr, arm: e.Op == isa.OpArm})
	}
	off := r.n & blockMask
	if off == 0 {
		r.blocks = append(r.blocks, blockPool.Get().(*recBlock))
	}
	r.blocks[r.n>>blockShift][off] = recEntry{
		pc: e.PC, addr: e.Addr, target: e.Target,
		op: uint8(e.Op), kind: uint8(e.Kind),
		dst: e.Dst, src1: e.Src1, src2: e.Src2, sz: e.Size, flags: fl,
	}
	r.n++
}

// Release returns the Recorder's blocks to the shared pool and empties it.
// The caller must guarantee no Replayer over this Recorder is still in use:
// released blocks are recycled and overwritten by later captures. Releasing
// is optional — an unreleased Recorder is ordinary garbage — but a sweep
// that captures many traces avoids refaulting fresh pages by releasing each
// one at its last use.
func (r *Recorder) Release() {
	for _, b := range r.blocks {
		blockPool.Put(b)
	}
	r.blocks = nil
	r.n = 0
	r.curBatch = 0
	r.effBatches = nil
	r.effOps = nil
}

// AppendFrom drains src into the Recorder and reports how many entries it
// consumed (src is a single-use Reader, so they are consumed regardless of
// overflow).
func (r *Recorder) AppendFrom(src Reader) int {
	n := 0
	for {
		e, ok := src.Next()
		if !ok {
			return n
		}
		r.Append(e)
		n++
	}
}

// At reconstructs entry i.
func (r *Recorder) At(i int) Entry {
	s := &r.blocks[i>>blockShift][i&blockMask]
	return Entry{
		Seq:    uint64(i),
		PC:     s.pc,
		Op:     isa.Op(s.op),
		Kind:   Kind(s.kind),
		Dst:    s.dst,
		Src1:   s.src1,
		Src2:   s.src2,
		Addr:   s.addr,
		Size:   s.sz,
		Taken:  s.flags&flagTaken != 0,
		Faults: s.flags&flagFaults != 0,
		Target: s.target,
	}
}

// Sink receives a trace in stream order as it is captured. A Recorder keeps
// it in memory for replay; the persistent store's trace writer encodes it for
// disk without holding it. TokenWidth is the width the trace's ARM/DISARM
// entries operate on (0 for traces from non-REST worlds).
type Sink interface {
	Append(Entry)
	TokenWidth() uint64
}

// tee mirrors a streaming Reader into a Sink.
type tee struct {
	r    Reader
	sink Sink
}

// Tee returns a Reader that yields src's entries unchanged while appending
// each one to sink. When sink carries no token shadow (TokenWidth 0) the
// returned Reader also implements BatchReader: with no ARM/DISARM effects to
// keep in lockstep, letting the consumer buffer entries ahead of the machine
// is unobservable, and the batch path saves an interface dispatch per entry
// during capture. REST captures stay entry-at-a-time — there the live
// TokenTracker is the detector's source, and the pipeline may only run one
// batch behind it (see the package comment).
func Tee(src Reader, sink Sink) Reader {
	if sink.TokenWidth() == 0 {
		return &batchTee{tee{r: src, sink: sink}}
	}
	return &tee{r: src, sink: sink}
}

// Next implements Reader.
func (t *tee) Next() (Entry, bool) {
	e, ok := t.r.Next()
	if ok {
		t.sink.Append(e)
	}
	return e, ok
}

// batchTee is the shadow-free capture tee (see Tee).
type batchTee struct{ tee }

// ReadBatch implements BatchReader.
func (t *batchTee) ReadBatch(buf []Entry) int {
	n := 0
	for n < len(buf) {
		e, ok := t.r.Next()
		if !ok {
			break
		}
		t.sink.Append(e)
		buf[n] = e
		n++
	}
	return n
}

// Replayer streams a recorded trace back out, allocation-free per entry, and
// doubles as the cache hierarchy's TokenSource: it reconstructs the armed
// token state the fill-time content detector would have observed at each
// point of the original run (see the package comment above for why the
// batch-lookahead shadow is exact). Like every Reader it is single-use;
// create one per replay with Recorder.Replayer. Concurrent Replayers over
// one shared Recorder are safe — the columns are never written after
// capture — but an individual Replayer is not goroutine-safe.
type Replayer struct {
	rec     *Recorder
	pos     int
	applied int // start of the next effect-carrying batch (or rec.n)
	effIdx  int // next effBatch to apply
	chunks  int
	armed   map[uint64]struct{}
}

// Replayer returns a fresh Replayer positioned at the start of the trace.
// It panics on an overflowed Recorder — an incomplete trace must never reach
// the timing model.
func (r *Recorder) Replayer() *Replayer {
	if r.overflowed {
		panic("trace: Replayer on overflowed Recorder")
	}
	rp := &Replayer{rec: r, applied: r.n}
	if r.tokenWidth != 0 {
		rp.chunks = lineBytes / int(r.tokenWidth)
		rp.armed = make(map[uint64]struct{})
		if len(r.effBatches) > 0 {
			rp.applied = r.effBatches[0].pos
		}
	}
	return rp
}

// Next implements Reader. On entering a new batch (a KindUser entry and its
// trailing runtime micro-ops) it first applies the whole batch's non-faulting
// ARM/DISARM effects to the token shadow, reproducing the functional
// machine's one-batch lookahead over the timing model.
func (rp *Replayer) Next() (Entry, bool) {
	if rp.pos >= rp.rec.n {
		return Entry{}, false
	}
	if rp.pos >= rp.applied {
		rp.syncBatch()
	}
	e := rp.rec.At(rp.pos)
	rp.pos++
	return e, true
}

// syncBatch applies the token effects of the indexed batch at rp.pos (the
// invariant "reads never cross rp.applied" guarantees rp.pos is exactly that
// batch's start), then advances rp.applied to the next effect-carrying
// batch's start. Skipping effect-free batches is exact — applying nothing is
// the same whenever it happens — and it is what lets ReadBatch hand out long
// straight runs between ARM/DISARM points. The effect index is built at
// capture time, so replay touches only the effects themselves, never the
// trace in between.
func (rp *Replayer) syncBatch() {
	r := rp.rec
	if rp.armed == nil || rp.effIdx >= len(r.effBatches) {
		rp.applied = r.n
		return
	}
	eb := r.effBatches[rp.effIdx]
	start := 0
	if rp.effIdx > 0 {
		start = r.effBatches[rp.effIdx-1].end
	}
	for _, op := range r.effOps[start:eb.end] {
		if op.arm {
			rp.armed[op.addr] = struct{}{}
		} else {
			delete(rp.armed, op.addr)
		}
	}
	rp.effIdx++
	if rp.effIdx < len(r.effBatches) {
		rp.applied = r.effBatches[rp.effIdx].pos
	} else {
		rp.applied = r.n
	}
}

// ReadBatch implements BatchReader: it fills buf with consecutive entries
// and returns how many it wrote (0 when the trace is exhausted). The token
// shadow stays exact under read-ahead because a batch that would change the
// armed set (a non-faulting ARM or DISARM anywhere in it) is only ever
// yielded at the start of a ReadBatch call: every entry the consumer still
// holds buffered then belongs to batches without token effects, so the
// shadow the cache detector observes is the same as under entry-at-a-time
// Next.
func (rp *Replayer) ReadBatch(buf []Entry) int {
	r := rp.rec
	n := 0
	for n < len(buf) && rp.pos < r.n {
		if rp.pos >= rp.applied {
			// rp.pos sits on an effect-carrying batch: it may only be
			// yielded at the start of a ReadBatch call (see above), so an
			// in-progress call stops here.
			if n > 0 {
				break
			}
			rp.syncBatch()
		}
		// Copy the straight run bounded by the shadow sync point, the
		// current block's edge and the buffer, with the block pointer and
		// sequence arithmetic hoisted out of the entry loop.
		end := rp.applied
		if end > r.n {
			end = r.n
		}
		if lim := rp.pos + (len(buf) - n); lim < end {
			end = lim
		}
		if edge := (rp.pos | blockMask) + 1; edge < end {
			end = edge
		}
		b := r.blocks[rp.pos>>blockShift]
		for i := rp.pos & blockMask; rp.pos < end; i++ {
			s := &b[i]
			buf[n] = Entry{
				Seq:    uint64(rp.pos),
				PC:     s.pc,
				Op:     isa.Op(s.op),
				Kind:   Kind(s.kind),
				Dst:    s.dst,
				Src1:   s.src1,
				Src2:   s.src2,
				Addr:   s.addr,
				Size:   s.sz,
				Taken:  s.flags&flagTaken != 0,
				Faults: s.flags&flagFaults != 0,
				Target: s.target,
			}
			rp.pos++
			n++
		}
	}
	return n
}

// LineTokenMask implements the cache hierarchy's TokenSource over the shadow
// armed set: bit i is set when chunk i of the 64-byte line at lineAddr is
// armed at the current replay position.
func (rp *Replayer) LineTokenMask(lineAddr uint64) uint8 {
	if len(rp.armed) == 0 {
		return 0
	}
	lineAddr &^= lineBytes - 1
	var mask uint8
	w := rp.rec.tokenWidth
	for i := 0; i < rp.chunks; i++ {
		if _, ok := rp.armed[lineAddr+uint64(i)*w]; ok {
			mask |= 1 << i
		}
	}
	return mask
}

// ChunksPerLine implements TokenSource.
func (rp *Replayer) ChunksPerLine() int { return rp.chunks }
