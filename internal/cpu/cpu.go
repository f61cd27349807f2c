// Package cpu is the out-of-order timing model. It replays the dynamic
// trace produced by the functional simulator through an 8-wide machine with
// the structure sizes of Table II (192-entry ROB, 64-entry IQ, 32-entry LQ
// and SQ, L-TAGE-class branch prediction) over the cache hierarchy.
//
// The model is dependency-timed rather than cycle-stepped: each instruction's
// fetch, dispatch, issue, completion and commit cycles are derived from its
// register dependences, structural-resource constraints (FIFO-freed ROB, LQ
// and SQ rings; out-of-order-freed IQ via a min-heap of issue cycles),
// per-cycle bandwidth tables, branch-redirect points, and memory-system
// response times. This computes the same steady-state behaviour as a
// cycle-stepped model at a fraction of the cost, which is what lets the full
// Figure 7/8 matrices run as ordinary Go benchmarks.
//
// REST microarchitecture (paper §III-B):
//
//   - ARM and DISARM are handled as stores in the LSQ but never forward
//     their (implicit, secret) value: a load that would forward from an
//     in-flight ARM raises a privileged REST exception, as do a store aimed
//     at an in-flight ARM's location and a DISARM matching an in-flight
//     DISARM (Table I, LSQ column).
//   - In secure mode stores commit eagerly; a token hit detected at the
//     cache after retirement yields an imprecise exception whose detection
//     lag is reported.
//   - In debug mode store commit is delayed until the write completes at the
//     L1-D — the dominant source of debug-mode slowdown (§VI-B) — and
//     exceptions are precise.
package cpu

import (
	"fmt"

	"rest/internal/bpred"
	"rest/internal/cache"
	"rest/internal/core"
	"rest/internal/isa"
	"rest/internal/trace"
)

// Config sizes the core per Table II.
type Config struct {
	FetchWidth  int // 8
	IssueWidth  int // 8
	CommitWidth int // 8
	ROBSize     int // 192
	IQSize      int // 64
	LQSize      int // 32
	SQSize      int // 32

	FrontendDepth   uint64 // fetch->dispatch stages (default 6)
	RedirectPenalty uint64 // extra cycles after branch resolution (default 2)

	LoadPorts  int // L1-D read ports per cycle (default 2)
	StorePorts int // L1-D write ports per cycle (default 1)

	ALULat uint64 // default 1
	MulLat uint64 // default 3
	DivLat uint64 // default 12

	Mode core.Mode

	// SerializeArmDisarm models the simple-but-slow alternative the paper
	// rejects (§III-B "LSQ Modification"): instead of the split matching
	// logic in the LSQ, ensure an ARM/DISARM is the only in-flight
	// instruction — drain the window before it and refetch after it.
	SerializeArmDisarm bool
}

// DefaultConfig returns the Table II core configuration.
func DefaultConfig() Config {
	return Config{
		FetchWidth: 8, IssueWidth: 8, CommitWidth: 8,
		ROBSize: 192, IQSize: 64, LQSize: 32, SQSize: 32,
		FrontendDepth: 6, RedirectPenalty: 2,
		LoadPorts: 2, StorePorts: 1,
		ALULat: 1, MulLat: 3, DivLat: 12,
	}
}

func (c *Config) applyDefaults() {
	d := DefaultConfig()
	if c.FetchWidth == 0 {
		c.FetchWidth = d.FetchWidth
	}
	if c.IssueWidth == 0 {
		c.IssueWidth = d.IssueWidth
	}
	if c.CommitWidth == 0 {
		c.CommitWidth = d.CommitWidth
	}
	if c.ROBSize == 0 {
		c.ROBSize = d.ROBSize
	}
	if c.IQSize == 0 {
		c.IQSize = d.IQSize
	}
	if c.LQSize == 0 {
		c.LQSize = d.LQSize
	}
	if c.SQSize == 0 {
		c.SQSize = d.SQSize
	}
	if c.FrontendDepth == 0 {
		c.FrontendDepth = d.FrontendDepth
	}
	if c.RedirectPenalty == 0 {
		c.RedirectPenalty = d.RedirectPenalty
	}
	if c.LoadPorts == 0 {
		c.LoadPorts = d.LoadPorts
	}
	if c.StorePorts == 0 {
		c.StorePorts = d.StorePorts
	}
	if c.ALULat == 0 {
		c.ALULat = d.ALULat
	}
	if c.MulLat == 0 {
		c.MulLat = d.MulLat
	}
	if c.DivLat == 0 {
		c.DivLat = d.DivLat
	}
}

// Stats is the timing-run result.
type Stats struct {
	Cycles       uint64
	Instructions uint64 // all committed entries (user + runtime)
	UserInstrs   uint64
	RuntimeOps   uint64
	IPC          float64

	Mispredicts    uint64
	BranchLookups  uint64
	LSQForwardings uint64

	// Structural-stall accounting (cycles of dispatch delay attributed to
	// each full structure; §VI-B reports IQ-full behaviour).
	ROBFullCycles uint64
	IQFullCycles  uint64
	LQFullCycles  uint64
	SQFullCycles  uint64

	// ROBStoreBlockCycles accumulates cycles the ROB head was held by a
	// store waiting for write completion (debug mode; ~0 in secure mode).
	ROBStoreBlockCycles uint64

	// Exception reports the REST exception, with DetectLagCycles and
	// precision resolved per mode.
	Exception *core.Exception
	// LSQViolation is set when the violation was detected by the LSQ
	// matching logic rather than the cache detector.
	LSQViolation bool
}

// sqEntry is an in-flight store-queue entry used for forwarding checks.
type sqEntry struct {
	addr      uint64
	size      uint8
	op        isa.Op
	dataReady uint64 // cycle store data is available for forwarding
	writeDone uint64 // cycle the store leaves the SQ (write completed)
}

// Pipeline is a single-use timing model instance.
type Pipeline struct {
	cfg    Config
	hier   *cache.Hierarchy
	pred   *bpred.Predictor
	probes *Probes
}

// New builds a pipeline over a hierarchy and predictor. It panics on an
// SQSize of slotWindow (8,192) or more: the SQ keeps every store-port
// reservation within SQSize-1 cycles of its request, so below that size
// the store port's slotPair counts exactly what the direct-mapped
// slotWindow-cycle table it replaced counted, and every reported cycle
// stays the same.
func New(cfg Config, hier *cache.Hierarchy, pred *bpred.Predictor) *Pipeline {
	cfg.applyDefaults()
	if cfg.SQSize >= slotWindow {
		panic(fmt.Sprintf("cpu: SQ size %d not below the %d-cycle slot window", cfg.SQSize, slotWindow))
	}
	return &Pipeline{cfg: cfg, hier: hier, pred: pred}
}

// SetProbes attaches an observability probe set (nil = off). Call before
// Run.
func (p *Pipeline) SetProbes(pr *Probes) { p.probes = pr }

// Run replays the trace and returns timing statistics.
func (p *Pipeline) Run(r trace.Reader) *Stats {
	cfg := p.cfg
	st := &Stats{}

	// The two direct-mapped tables take 128 KiB: allocated here, they
	// would sit in Run's frame and grow every worker's stack to hold it.
	slots := new([2][slotWindow]uint64)
	fetchSlots := slotPair{width: uint64(cfg.FetchWidth)}
	issueSlots := newSlotTable(cfg.IssueWidth, &slots[0])
	commitSlots := slotPair{width: uint64(cfg.CommitWidth)}
	loadPorts := newSlotTable(cfg.LoadPorts, &slots[1])
	storePorts := slotPair{width: uint64(cfg.StorePorts)}

	rob := newRing(cfg.ROBSize)
	lq := newRing(cfg.LQSize)
	sq := newRing(cfg.SQSize)
	iq := &minHeap{}

	var regReady [isa.NumRegs]uint64
	var fetchReady uint64
	lastFetchLine := ^uint64(0)
	var lastCommit uint64

	// Recent stores for forwarding; bounded by SQ size. The window slides
	// through a fixed backing array and is compacted to the front when it
	// reaches the end, so steady-state store traffic never touches the
	// allocator (an append-and-reslice window reallocates every SQSize
	// stores, which showed up as memmove + GC churn in replay profiles).
	sqBack := make([]sqEntry, 4*cfg.SQSize)
	sqStart, sqEnd := 0, 0
	sqLive := sqBack[:0]

	// Pull entries in batches when the reader supports it (the trace
	// Replayer does): one interface call per buffer instead of per entry.
	// The Replayer's ReadBatch contract keeps its token shadow exact under
	// this read-ahead.
	var ebuf [256]trace.Entry
	var ebn, ebi int
	br, batched := r.(trace.BatchReader)

	for {
		var e *trace.Entry
		if batched {
			if ebi == ebn {
				ebn = br.ReadBatch(ebuf[:])
				ebi = 0
				if ebn == 0 {
					break
				}
			}
			e = &ebuf[ebi]
			ebi++
		} else {
			ev, ok := r.Next()
			if !ok {
				break
			}
			e = &ev
		}
		st.Instructions++
		if e.Kind == trace.KindUser {
			st.UserInstrs++
		} else {
			st.RuntimeOps++
		}

		// --- Fetch ---
		f := fetchSlots.reserve(fetchReady)
		line := e.PC &^ (cache.LineBytes - 1)
		if line != lastFetchLine {
			done := p.hier.FetchInstr(f, e.PC)
			if done > f+2 { // beyond pipelined hit latency: I-miss stall
				f = fetchSlots.reserve(done)
			}
			lastFetchLine = line
		}
		if f > fetchReady {
			fetchReady = f
		}

		// --- Dispatch (rename + structural allocation) ---
		d := f + cfg.FrontendDepth
		// f is non-decreasing across instructions, so every future scanSQ
		// query uses at = issue >= (f' + FrontendDepth) + 1 >= d + 1. (d
		// itself may be raised by structural constraints below, and those
		// raises do not carry to the next instruction, so the safe prune
		// bound is captured here, before them.)
		sqPruneAt := d + 1
		if c := rob.peek(); c > d {
			st.ROBFullCycles += c - d
			d = c
		}
		iqFull := iq.len() >= cfg.IQSize
		if iqFull {
			// The IQ entry that frees is the one with the earliest issue
			// cycle; it is replaced (not popped and re-pushed) with this
			// instruction's issue cycle once that is known, below.
			if m := iq.peekMin(); m > d {
				st.IQFullCycles += m - d
				d = m
			}
		}
		// Occupancy probes, sampled at dispatch: how full each window
		// structure is at cycle d. Deterministic (a function of the trace
		// and the timing model alone) and off the fast path when disabled.
		if p.probes != nil && st.Instructions&(probeSampleStride-1) == 0 {
			p.probes.sample(d, rob, lq, sq, iq)
		}
		isLoad := e.Op == isa.OpLoad
		isStoreLike := e.Op == isa.OpStore || e.Op == isa.OpArm || e.Op == isa.OpDisarm
		isArmLike := e.Op == isa.OpArm || e.Op == isa.OpDisarm
		if cfg.SerializeArmDisarm && isArmLike && lastCommit > d {
			// Pipeline drain: nothing older may be in flight.
			d = lastCommit
		}
		if isLoad {
			if c := lq.peek(); c > d {
				st.LQFullCycles += c - d
				d = c
			}
		}
		if isStoreLike {
			if c := sq.peek(); c > d {
				st.SQFullCycles += c - d
				d = c
			}
		}
		if isLoad || isStoreLike {
			// Prune stores that can never match another scan: an entry whose
			// write completed by sqPruneAt is invisible to this and every
			// future scan (all query at issue >= sqPruneAt). This keeps the
			// scanned window at the handful of genuinely in-flight stores
			// instead of the full SQ history.
			for sqStart < sqEnd && sqBack[sqStart].writeDone <= sqPruneAt {
				sqStart++
			}
			sqLive = sqBack[sqStart:sqEnd]
		}

		// --- Issue ---
		ready := d + 1
		if e.Src1 != isa.NoReg && regReady[e.Src1] > ready {
			ready = regReady[e.Src1]
		}
		if e.Src2 != isa.NoReg && regReady[e.Src2] > ready {
			ready = regReady[e.Src2]
		}
		issue := issueSlots.reserve(ready)

		// --- Execute ---
		var complete uint64
		var detect uint64 // cycle a REST violation is observed at the cache
		lsqViolation := false

		switch e.Op.Class() {
		case isa.ClassLoad:
			issue = loadPorts.reserve(issue)
			fwd, conflict, armHit := scanSQ(sqLive, e.Addr, e.Size, issue)
			switch {
			case armHit:
				// Load "hits" an in-flight ARM: the forwarding path would
				// leak the token, so the LSQ raises instead (§III-B).
				lsqViolation = true
				complete = issue + 1
				detect = complete
			case fwd != nil:
				st.LSQForwardings++
				complete = max64(issue, fwd.dataReady) + 1
			case conflict != nil:
				// Partial overlap: conservatively wait for the store to
				// drain, then access the cache.
				at := max64(issue, conflict.writeDone)
				res := p.hier.L1D.Load(at, e.Addr, e.Size)
				complete = p.loadComplete(res, &detect, e.Faults)
			default:
				res := p.hier.L1D.Load(issue, e.Addr, e.Size)
				complete = p.loadComplete(res, &detect, e.Faults)
			}

		case isa.ClassStore, isa.ClassArm, isa.ClassDisarm:
			// Address/data into the SQ.
			complete = issue + 1
			_, _, armHit := scanSQ(sqLive, e.Addr, e.Size, issue)
			if e.Op == isa.OpStore && armHit {
				lsqViolation = true
				detect = complete
			}
			if e.Op == isa.OpDisarm && scanSQDisarm(sqLive, e.Addr, issue) {
				lsqViolation = true
				detect = complete
			}

		case isa.ClassMul:
			complete = issue + cfg.MulLat
		case isa.ClassDiv:
			complete = issue + cfg.DivLat
		default:
			complete = issue + cfg.ALULat
		}

		if e.Dst != isa.NoReg {
			regReady[e.Dst] = complete
		}

		// --- Commit (in order) ---
		c := max64(lastCommit, complete+1)
		c = commitSlots.reserve(c)

		var writeDone uint64
		if isStoreLike && !lsqViolation {
			// The write to the L1-D happens at commit.
			wstart := storePorts.reserve(c)
			resHit := false
			switch e.Op {
			case isa.OpStore:
				res := p.hier.L1D.Store(wstart, e.Addr, e.Size)
				writeDone = res.Done
				resHit = res.Hit
				if res.TokenHit || e.Faults {
					detect = res.Done
				}
			case isa.OpArm:
				res := p.hier.L1D.Arm(wstart, e.Addr)
				writeDone = res.Done
				resHit = res.Hit
				if e.Faults { // misaligned arm: precise invalid-instr exception
					detect = res.Done
				}
			case isa.OpDisarm:
				res, okDisarm := p.hier.L1D.Disarm(wstart, e.Addr)
				writeDone = res.Done
				resHit = res.Hit
				if !okDisarm || e.Faults {
					detect = res.Done
				}
			}
			if cfg.Mode == core.Debug {
				// Precise exceptions: the store may not leave the ROB until
				// the L1-D has acknowledged the write and its token check.
				// On a hit the ack (tag + token-bit check) returns the next
				// cycle; on a miss the whole line must arrive first, which
				// is where debug mode's order-of-magnitude ROB blocking
				// comes from (§VI-B).
				ack := writeDone
				if resHit {
					// Hit: the token bit lives in the tag array, so the
					// check completes at commit without waiting for the data
					// port; only missing lines hold the ROB head until the
					// fill (and its token check) completes.
					ack = c
				}
				if ack > c {
					st.ROBStoreBlockCycles += ack - c
					c = ack
				}
			}
		}
		lastCommit = c

		// Record structure exits.
		rob.next(c)
		if iqFull {
			iq.replaceMin(issue)
		} else {
			iq.push(issue)
		}
		if isLoad {
			lq.next(c)
		}
		if isStoreLike {
			free := max64(c, writeDone)
			sq.next(free)
			if sqEnd == len(sqBack) {
				copy(sqBack, sqBack[sqStart:sqEnd])
				sqEnd -= sqStart
				sqStart = 0
			}
			sqBack[sqEnd] = sqEntry{addr: e.Addr, size: e.Size, op: e.Op, dataReady: complete, writeDone: free}
			sqEnd++
			if sqEnd-sqStart > cfg.SQSize {
				sqStart++
			}
			sqLive = sqBack[sqStart:sqEnd]
		}

		if cfg.SerializeArmDisarm && isArmLike {
			// Refill: younger instructions refetch after the arm completes.
			done := max64(c, writeDone)
			if done > fetchReady {
				fetchReady = done
			}
		}

		// --- Branch resolution ---
		if e.Op.IsBranch() {
			st.BranchLookups++
			if p.pred.Resolve(e.PC, e.Op, e.Taken, e.Target, e.PC+isa.InstrBytes) {
				st.Mispredicts++
				redirect := complete + cfg.RedirectPenalty
				if redirect > fetchReady {
					fetchReady = redirect
				}
				lastFetchLine = ^uint64(0)
			}
		}

		// --- Exception reporting ---
		if e.Faults || lsqViolation {
			exc := &core.Exception{Addr: e.Addr, PC: e.PC}
			if lsqViolation {
				switch e.Op {
				case isa.OpLoad:
					exc.Kind = core.ViolationForwarding
				case isa.OpStore:
					exc.Kind = core.ViolationStoreInflightArm
				default:
					exc.Kind = core.ViolationDoubleDisarm
				}
			} else {
				exc.Kind = faultKind(e.Op)
			}
			if detect == 0 {
				detect = c
			}
			if cfg.Mode == core.Debug {
				exc.Precise = true
				if detect > c {
					// Precision guarantee: hold commit to the detection.
					lastCommit = detect
				}
			} else {
				exc.Precise = false
				if detect > c {
					exc.DetectLagCycles = detect - c
				}
			}
			st.Exception = exc
			st.LSQViolation = lsqViolation
			break
		}
	}

	st.Cycles = lastCommit
	if st.Cycles > 0 {
		st.IPC = float64(st.Instructions) / float64(st.Cycles)
	}
	p.probes.record(st)
	return st
}

// loadComplete resolves a load's completion cycle under the mode's
// critical-word-first policy (§III-B): secure mode releases the load at the
// critical word and reports any token verdict at fill completion (the
// imprecise-exception detection lag); debug mode holds loads whose line
// carries token chunks at the MSHR until the whole line has been checked.
func (p *Pipeline) loadComplete(res cache.AccessResult, detect *uint64, faults bool) uint64 {
	complete := res.Done
	if res.TokenHit || faults {
		*detect = res.FillDone
		if p.cfg.Mode == core.Debug {
			complete = res.FillDone
		}
	}
	return complete
}

// scanSQ searches the live store-queue entries (oldest to youngest; all are
// older than the current access) for address matches against [addr,
// addr+size). It returns the youngest fully-covering regular store still in
// flight at cycle `at` (forwarding source), the youngest partially
// overlapping in-flight store (ordering conflict), and whether any matching
// in-flight entry is an ARM (REST violation).
func scanSQ(sqLive []sqEntry, addr uint64, size uint8, at uint64) (fwd, conflict *sqEntry, armHit bool) {
	end := addr + uint64(size)
	for i := len(sqLive) - 1; i >= 0; i-- {
		s := &sqLive[i]
		if s.writeDone <= at {
			continue // already drained to the cache
		}
		sEnd := s.addr + uint64(s.size)
		if end <= s.addr || addr >= sEnd {
			continue // disjoint
		}
		if s.op == isa.OpArm {
			// The REST matching logic splits the comparison into a line
			// match plus an offset match; any line overlap with an ARM trips
			// the violation check regardless of exact bytes.
			return nil, nil, true
		}
		if s.op == isa.OpDisarm {
			// Disarmed (zeroed) data may forward normally; treat as a
			// regular store for ordering purposes.
		}
		if s.addr <= addr && sEnd >= end && s.op == isa.OpStore {
			if fwd == nil {
				fwd = s
			}
			return fwd, nil, false
		}
		if conflict == nil {
			conflict = s
			return nil, conflict, false
		}
	}
	return nil, nil, false
}

// scanSQDisarm reports whether an in-flight DISARM for the same token chunk
// is present (double-disarm check, Table I).
func scanSQDisarm(sqLive []sqEntry, addr uint64, at uint64) bool {
	for i := len(sqLive) - 1; i >= 0; i-- {
		s := &sqLive[i]
		if s.writeDone <= at || s.op != isa.OpDisarm {
			continue
		}
		if s.addr == addr {
			return true
		}
	}
	return false
}

func faultKind(op isa.Op) core.ViolationKind {
	switch op {
	case isa.OpLoad:
		return core.ViolationLoad
	case isa.OpStore:
		return core.ViolationStore
	case isa.OpArm:
		return core.ViolationMisaligned
	case isa.OpDisarm:
		return core.ViolationDisarmUnarmed
	}
	return core.ViolationLoad
}
