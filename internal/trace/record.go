package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"unsafe"

	"rest/internal/isa"
)

// Capture/replay: a Recorder encodes a dynamic trace compactly while it
// streams past, and a Replayer feeds it back through the timing model
// without re-running the functional simulator.
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

// Storage: a predictive byte encoding in which a steady loop costs a few
// bytes per block.
//
// Every entry belongs to a static site, its (PC, Op, Kind, Dst, Src1, Src2,
// Size) tuple, which the Recorder keeps once in a per-trace site table. An
// entry is then one header byte
//
//	bit 0     Taken
//	bit 1     Faults
//	bit 2     same site: the one that last followed the previous entry's site
//	bits 3-4  how Addr is coded
//	bits 5-6  how Target is coded
//
// followed by a uvarint site index when bit 2 is clear, then a zigzag varint
// delta for Addr and then for Target where their codes call for one. A value
// is coded as zero, as its site's prediction (Addr: the site's last address
// plus its last stride; Target: the site's last target), or as a delta from
// that prediction. Seq is not stored: it is the entry's index.
//
// An entry is fully predicted when it is coded "same site", needs no delta,
// and its header repeats its site's last header (bit 2 aside). A maximal
// stretch of two or more fully predicted entries is one run header, Addr
// code 3 and every other bit clear, followed by a uvarint count: each entry
// of the run takes the recorded successor of the one before it, with that
// site's last header. The encoder writes a stretch's first entry as its
// plain header and turns it into a run header when a second one follows;
// the open run is always the last thing in the block, so later entries
// rewrite its count in place and the bytes decode to the whole trace after
// every Append.
//
// The prediction state starts afresh every blockEntries entries, so each
// block decodes on its own given the site table (a run never crosses a
// block edge): reaching entry i costs at most one block of decoding, and
// ReadBatch decodes stretches clamped to block edges straight into the
// caller's buffer. The same bytes are the trace's serialized form (see
// encoding.go).
const (
	blockShift   = 14
	blockEntries = 1 << blockShift
	blockMask    = blockEntries - 1
)

// Header byte layout (see above).
const (
	hdrTaken       = 1 << 0
	hdrFaults      = 1 << 1
	hdrSameSite    = 1 << 2
	hdrAddrShift   = 3
	hdrTargetShift = 5
	codeZero       = 0 // the value is 0
	codePredicted  = 1 // the value equals its site's prediction
	codeDelta      = 2 // a zigzag varint of value - prediction follows
	codeRun        = 3 // Addr only, and no value: a run header (hdrRun)
	codeMask       = 3
	// hdrRun is a run header: Addr code 3 with every other bit clear. A
	// uvarint entry count follows.
	hdrRun = codeRun << hdrAddrShift
)

// site is one static instruction: every field of an Entry that repeats each
// time the instruction executes.
type site struct {
	pc                    uint64
	op                    isa.Op
	kind                  Kind
	dst, src1, src2, size uint8
}

// siteBytes is one site-table row's storage.
const siteBytes = int(unsafe.Sizeof(site{}))

// predictor is one site's prediction state within a block.
type predictor struct {
	addr, stride, target uint64
	next                 uint32 // 1 + the site that last followed this one; 0 = none yet
	last                 byte   // the header of the site's last entry, bit 2 clear
}

// model is the prediction state of one pass over a block: the encoder's
// while capturing, and each reader's while decoding.
type model struct {
	pred []predictor // by site index
	prev uint32      // 1 + the previous entry's site; 0 at a block start
	run  uint64      // decoding: entries of the current run still to come
}

// reset starts a block: nothing is predicted yet.
func (m *model) reset() {
	clear(m.pred)
	m.prev = 0
	m.run = 0
}

// Recorder captures a dynamic trace in compact encoded form. Append it
// entries directly, drain a Reader into it with AppendFrom, or splice it into
// a streaming run with Tee. A byte limit turns runaway captures into an
// explicit Overflowed state instead of unbounded memory. The zero value
// records with no token shadow and no limit; use NewRecorder to configure
// both.
type Recorder struct {
	tokenWidth uint64
	limit      int // most bytes Bytes may report (0 = unlimited)
	overflowed bool

	n      int
	blocks [][]byte // sealed blocks of blockEntries encoded entries each
	sealed int      // their total length
	tail   []byte   // the block being appended; its buffer is reused once sealed
	sites  []site
	siteOf map[site]uint32
	enc    model
	open   int // entries in the run that ends tail (0 = none)
	openAt int // that run's header offset in tail

	// Effect index, built during capture for REST traces (tokenWidth != 0):
	// the positions of the batches whose non-faulting ARM/DISARM entries
	// change the replay token shadow, with the effects themselves hoisted
	// into a side list. Replay then never scans the trace for effects — it
	// jumps from one indexed batch start to the next and applies the ops
	// directly (see Replayer.syncBatch).
	curBatch   int        // start index of the batch currently being appended
	effBatches []effBatch // ascending by pos; ranges into effOps
	effOps     []effOp

	atMu sync.Mutex
	at   atCache
}

// effBatch marks one effect-carrying batch: pos is the batch's start index in
// the trace, end is the exclusive upper bound of its ops in effOps (its lower
// bound is the previous effBatch's end). A capture whose index would need
// either past 32 bits overflows.
type effBatch struct {
	pos, end uint32
}

// effOp is one shadow mutation: the address of the chunk it arms (sets) or
// disarms (clears), with effArm in bit 0 for an arm. A non-faulting ARM or
// DISARM is token-aligned, because the tracker faults a misaligned one, so
// bit 0 of its address is clear; Append panics on one where it is not.
type effOp uint64

const effArm effOp = 1

// Storage of one effect-index element each, counted by Bytes.
const (
	effOpBytes    = int(unsafe.Sizeof(effOp(0)))
	effBatchBytes = int(unsafe.Sizeof(effBatch{}))
)

// changesShadow reports whether e, in a trace of the given token width,
// arms or disarms a chunk of the replay token shadow: a non-faulting ARM or
// DISARM of a REST trace (tokenWidth != 0).
func changesShadow(tokenWidth uint64, e *Entry) bool {
	return tokenWidth != 0 && !e.Faults && (e.Op == isa.OpArm || e.Op == isa.OpDisarm)
}

// NewRecorder returns a Recorder for a trace whose ARM/DISARM entries operate
// on tokenWidth-byte chunks (0 for traces from non-REST worlds) and that
// overflows once its storage (Bytes) would pass maxBytes (0 = unlimited).
func NewRecorder(tokenWidth uint64, maxBytes int) *Recorder {
	return &Recorder{tokenWidth: tokenWidth, limit: maxBytes}
}

// TokenWidth reports the token width the trace was recorded under (0 when
// the source world had no REST hardware).
func (r *Recorder) TokenWidth() uint64 { return r.tokenWidth }

// Len reports how many entries are recorded.
func (r *Recorder) Len() int { return r.n }

// Bytes reports the storage the recorded entries occupy: their encoding, the
// site table it refers to and, for a REST trace, the effect index.
func (r *Recorder) Bytes() uint64 {
	return uint64(r.sealed + len(r.tail) + len(r.sites)*siteBytes +
		len(r.effOps)*effOpBytes + len(r.effBatches)*effBatchBytes)
}

// Overflowed reports whether the byte limit stopped the capture (or, past
// 2^32 entries, the effect index's range); an overflowed Recorder has
// dropped its contents and ignores further Appends.
func (r *Recorder) Overflowed() bool { return r.overflowed }

// Append records one entry. Entries must arrive in stream order; Seq is not
// stored (it is always the entry's index, which is how Machine assigns it).
func (r *Recorder) Append(e Entry) {
	if r.overflowed {
		return
	}
	if e.Kind == KindUser {
		r.curBatch = r.n
	}
	if changesShadow(r.tokenWidth, &e) {
		if e.Addr&uint64(effArm) != 0 {
			panic(fmt.Sprintf("trace: non-faulting %v at odd address %#x", e.Op, e.Addr))
		}
		if uint64(r.curBatch) > math.MaxUint32 || uint64(len(r.effOps)) >= math.MaxUint32 {
			r.Release()
			r.overflowed = true
			return
		}
		if k := len(r.effBatches) - 1; k >= 0 && int(r.effBatches[k].pos) == r.curBatch {
			r.effBatches[k].end++
		} else {
			r.effBatches = append(r.effBatches, effBatch{pos: uint32(r.curBatch), end: uint32(len(r.effOps) + 1)})
		}
		op := effOp(e.Addr)
		if e.Op == isa.OpArm {
			op |= effArm
		}
		r.effOps = append(r.effOps, op)
	}
	if r.n&blockMask == 0 {
		r.enc.reset()
		r.open = 0
	}
	r.encode(&e)
	r.n++
	if r.n&blockMask == 0 {
		// Seal the full block into exact-size storage.
		r.blocks = append(r.blocks, append([]byte(nil), r.tail...))
		r.sealed += len(r.tail)
		r.tail = r.tail[:0]
	}
	if r.limit != 0 && r.Bytes() > uint64(r.limit) {
		// Drop everything: a partial trace must never be replayed, and
		// keeping the storage would defeat the point of the limit.
		r.Release()
		r.overflowed = true
	}
}

// encode appends e's encoding to the open block.
func (r *Recorder) encode(e *Entry) {
	s := site{pc: e.PC, op: e.Op, kind: e.Kind, dst: e.Dst, src1: e.Src1, src2: e.Src2, size: e.Size}
	m := &r.enc
	var h byte
	if e.Taken {
		h |= hdrTaken
	}
	if e.Faults {
		h |= hdrFaults
	}
	var idx uint32
	if m.prev != 0 {
		if nx := m.pred[m.prev-1].next; nx != 0 && r.sites[nx-1] == s {
			idx = nx - 1
			h |= hdrSameSite
		}
	}
	if h&hdrSameSite == 0 {
		idx = r.siteIndex(s)
		if m.prev != 0 {
			m.pred[m.prev-1].next = idx + 1
		}
	}
	p := &m.pred[idx]
	ac, ad := codeOf(e.Addr, p.addr+p.stride)
	tc, td := codeOf(e.Target, p.target)
	h |= ac<<hdrAddrShift | tc<<hdrTargetShift
	full := h == p.last|hdrSameSite && ac != codeDelta && tc != codeDelta
	p.last = h &^ hdrSameSite
	p.stride = e.Addr - p.addr
	p.addr = e.Addr
	p.target = e.Target
	m.prev = idx + 1
	if full {
		// A run stays inside its block, so its count is below 2^14: a
		// uvarint of one byte, or of two from 128 on, rewritten in place.
		r.open++
		switch n := r.open; {
		case n == 1:
			// A stretch's first entry keeps its plain header, one byte.
			r.openAt = len(r.tail)
			r.tail = append(r.tail, h)
		case n == 2:
			r.tail[r.openAt] = hdrRun
			r.tail = append(r.tail, 2)
		case n < 0x80:
			r.tail[r.openAt+1] = byte(n)
		default:
			r.tail = append(r.tail[:r.openAt+1], byte(n)|0x80, byte(n>>7))
		}
		return
	}
	r.open = 0
	b := append(r.tail, h)
	if h&hdrSameSite == 0 {
		b = binary.AppendUvarint(b, uint64(idx))
	}
	if ac == codeDelta {
		b = binary.AppendVarint(b, int64(ad))
	}
	if tc == codeDelta {
		b = binary.AppendVarint(b, int64(td))
	}
	r.tail = b
}

// codeOf picks how v is coded against its prediction, and the delta to
// store when neither zero nor the prediction matches.
func codeOf(v, pred uint64) (code byte, delta uint64) {
	switch v {
	case 0:
		return codeZero, 0
	case pred:
		return codePredicted, 0
	}
	return codeDelta, v - pred
}

// siteIndex returns s's index in the site table, adding it if new.
func (r *Recorder) siteIndex(s site) uint32 {
	if i, ok := r.siteOf[s]; ok {
		return i
	}
	if r.siteOf == nil {
		r.siteOf = make(map[site]uint32)
	}
	i := uint32(len(r.sites))
	r.sites = append(r.sites, s)
	r.siteOf[s] = i
	r.enc.pred = append(r.enc.pred, predictor{})
	return i
}

// Release empties the Recorder, dropping its storage. No Replayer over it may
// be in use. Releasing is optional: an unreferenced Recorder is ordinary
// garbage.
func (r *Recorder) Release() {
	r.n = 0
	r.blocks = nil
	r.sealed = 0
	r.tail = nil
	r.sites = nil
	r.siteOf = nil
	r.enc = model{}
	r.open = 0
	r.curBatch = 0
	r.effBatches = nil
	r.effOps = nil
	r.atMu.Lock()
	r.at = atCache{}
	r.atMu.Unlock()
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

// block returns the encoded bytes of block k.
func (r *Recorder) block(k int) []byte {
	if k < len(r.blocks) {
		return r.blocks[k]
	}
	return r.tail
}

// cursor is a decoding position in a Recorder: the next entry's index, its
// byte offset within its block, and the block's prediction state so far,
// including what is left of a run the last decode stopped in.
type cursor struct {
	model
	pos, off int
}

// decode reconstructs the len(out) entries from c.pos on into out and
// advances c past them. They must all lie in one block.
func (r *Recorder) decode(c *cursor, out []Entry) {
	if c.pos&blockMask == 0 {
		c.reset()
		c.off = 0
	}
	b := r.block(c.pos >> blockShift)
	sites := r.sites
	pred := c.pred
	off, prev, run, seq := c.off, c.prev, c.run, uint64(c.pos)
	for i := 0; i < len(out); {
		if run != 0 {
			// Inside a run every entry is its predecessor's recorded
			// successor, coded by its site's last header, which never
			// calls for a delta.
			n := min(int(run), len(out)-i)
			run -= uint64(n)
			for end := i + n; i < end; i++ {
				idx := pred[prev-1].next - 1
				p := &pred[idx]
				h := p.last
				var addr, target uint64
				if (h>>hdrAddrShift)&codeMask == codePredicted {
					addr = p.addr + p.stride
				}
				if (h>>hdrTargetShift)&codeMask == codePredicted {
					target = p.target
				}
				p.stride = addr - p.addr
				p.addr = addr
				p.target = target
				prev = idx + 1
				put(&out[i], seq, &sites[idx], addr, target, h)
				seq++
			}
			continue
		}
		h := b[off]
		off++
		if h == hdrRun {
			var k int
			run, k = binary.Uvarint(b[off:])
			off += k
			continue
		}
		var idx uint32
		if h&hdrSameSite != 0 {
			idx = pred[prev-1].next - 1
		} else {
			v := uint64(b[off])
			if v < 0x80 {
				off++
			} else {
				var k int
				v, k = binary.Uvarint(b[off:])
				off += k
			}
			idx = uint32(v)
			if int(idx) >= len(pred) {
				// The site was recorded after this cursor was sized.
				c.pred = append(c.pred, make([]predictor, len(sites)-len(c.pred))...)
				pred = c.pred
			}
			if prev != 0 {
				pred[prev-1].next = idx + 1
			}
		}
		p := &pred[idx]
		var addr, target uint64
		switch (h >> hdrAddrShift) & codeMask {
		case codePredicted:
			addr = p.addr + p.stride
		case codeDelta:
			d, k := binary.Varint(b[off:])
			off += k
			addr = p.addr + p.stride + uint64(d)
		}
		switch (h >> hdrTargetShift) & codeMask {
		case codePredicted:
			target = p.target
		case codeDelta:
			d, k := binary.Varint(b[off:])
			off += k
			target = p.target + uint64(d)
		}
		p.stride = addr - p.addr
		p.addr = addr
		p.target = target
		p.last = h &^ hdrSameSite
		prev = idx + 1
		put(&out[i], seq, &sites[idx], addr, target, h)
		seq++
		i++
	}
	c.off, c.prev, c.run = off, prev, run
	c.pos += len(out)
}

// put writes one decoded entry. Field by field: a composite literal is
// built on the stack with narrow stores and copied out with wide loads,
// which stalls on store forwarding.
func put(e *Entry, seq uint64, s *site, addr, target uint64, h byte) {
	e.Seq = seq
	e.PC = s.pc
	e.Op = s.op
	e.Kind = s.kind
	e.Dst = s.dst
	e.Src1 = s.src1
	e.Src2 = s.src2
	e.Addr = addr
	e.Size = s.size
	e.Taken = h&hdrTaken != 0
	e.Faults = h&hdrFaults != 0
	e.Target = target
}

// atSpan is how many entries At decodes at a time. It divides blockEntries,
// so an aligned span never crosses a block edge.
const atSpan = 64

// atCache is At's state between calls: a cursor, and the aligned span of
// entries it decoded last, buf[:n] holding entries start to start+n-1. seen
// is the Recorder's length when the cursor last moved: an Append since then
// may have rewritten the run the cursor stands in.
type atCache struct {
	cur            cursor
	buf            [atSpan]Entry
	start, n, seen int
}

// At reconstructs entry i. It serves entries from the aligned span of atSpan
// entries it decoded last, and decodes the next span from a cursor it keeps
// between calls: a call costs a lock and a copy, plus one span of decoding
// when i leaves the span, plus up to one block (blockEntries entries) of
// decoding when it jumps back or to another block. Walking the trace in
// ascending order is therefore O(1) per entry. Concurrent callers are safe;
// they share the one cursor under the lock, so interleaved walks re-decode
// from their block starts. Sequential readers should prefer a Replayer,
// which decodes in bulk without locking.
func (r *Recorder) At(i int) Entry {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("trace: At(%d) out of range [0,%d)", i, r.n))
	}
	r.atMu.Lock()
	a := &r.at
	if i < a.start || i >= a.start+a.n {
		r.fillSpan(a, i)
	}
	e := a.buf[i-a.start]
	r.atMu.Unlock()
	return e
}

// fillSpan decodes the aligned span holding entry i into a.buf.
func (r *Recorder) fillSpan(a *atCache, i int) {
	c := &a.cur
	start := i &^ (atSpan - 1)
	if start < c.pos || start>>blockShift != c.pos>>blockShift || a.seen != r.n {
		c.pos = start &^ blockMask
	}
	a.seen = r.n
	for c.pos < start {
		r.decode(c, a.buf[:min(start-c.pos, atSpan)])
	}
	a.start, a.n = start, min(atSpan, r.n-start)
	r.decode(c, a.buf[:a.n])
}

// Sink receives a trace in stream order as it is captured; a Recorder is
// the one that keeps it. TokenWidth is the width the trace's ARM/DISARM
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
// one shared Recorder are safe — each decodes with its own cursor, and the
// encoding is never written after capture — but an individual Replayer is
// not goroutine-safe.
type Replayer struct {
	rec     *Recorder
	cur     cursor
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
	rp.cur.pred = make([]predictor, len(r.sites))
	if r.tokenWidth != 0 {
		rp.chunks = lineBytes / int(r.tokenWidth)
		rp.armed = make(map[uint64]struct{})
		if len(r.effBatches) > 0 {
			rp.applied = int(r.effBatches[0].pos)
		}
	}
	return rp
}

// Next implements Reader. On entering a new batch (a KindUser entry and its
// trailing runtime micro-ops) it first applies the whole batch's non-faulting
// ARM/DISARM effects to the token shadow, reproducing the functional
// machine's one-batch lookahead over the timing model.
func (rp *Replayer) Next() (Entry, bool) {
	if rp.cur.pos >= rp.rec.n {
		return Entry{}, false
	}
	if rp.cur.pos >= rp.applied {
		rp.syncBatch()
	}
	var e [1]Entry
	rp.rec.decode(&rp.cur, e[:])
	return e[0], true
}

// syncBatch applies the token effects of the indexed batch at the cursor
// (the invariant "reads never cross rp.applied" guarantees the cursor is
// exactly at that batch's start), then advances rp.applied to the next
// effect-carrying batch's start. Skipping effect-free batches is exact —
// applying nothing is the same whenever it happens — and it is what lets
// ReadBatch hand out long stretches between ARM/DISARM points. The effect
// index is built at capture time, so replay touches only the effects
// themselves, never the trace in between.
func (rp *Replayer) syncBatch() {
	r := rp.rec
	if rp.armed == nil || rp.effIdx >= len(r.effBatches) {
		rp.applied = r.n
		return
	}
	eb := r.effBatches[rp.effIdx]
	var start uint32
	if rp.effIdx > 0 {
		start = r.effBatches[rp.effIdx-1].end
	}
	for _, op := range r.effOps[start:eb.end] {
		if addr := uint64(op &^ effArm); op&effArm != 0 {
			rp.armed[addr] = struct{}{}
		} else {
			delete(rp.armed, addr)
		}
	}
	rp.effIdx++
	if rp.effIdx < len(r.effBatches) {
		rp.applied = int(r.effBatches[rp.effIdx].pos)
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
	for n < len(buf) && rp.cur.pos < r.n {
		pos := rp.cur.pos
		if pos >= rp.applied {
			// pos sits on an effect-carrying batch: it may only be yielded
			// at the start of a ReadBatch call (see above), so an
			// in-progress call stops here.
			if n > 0 {
				break
			}
			rp.syncBatch()
		}
		// Decode the stretch bounded by the shadow sync point, the
		// trace's end, the buffer and the block's edge.
		end := min(rp.applied, r.n, pos+len(buf)-n, (pos|blockMask)+1)
		r.decode(&rp.cur, buf[n:n+end-pos])
		n += end - pos
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
