// Package cache models the cache hierarchy of Table II: split 64KB 8-way
// L1 I/D caches (2-cycle), a unified 2MB 16-way L2 (20-cycle), LRU
// replacement, write-back write-allocate policy, bounded MSHRs and write
// buffers, backed by the DRAM model.
//
// The REST hardware modifications (paper §III-B, Figure 4 and Table I) live
// entirely at the L1 data cache:
//
//   - one token metadata bit per token-width chunk per line (1/2/4 bits for
//     64/32/16-byte tokens), set by the fill-time content detector;
//   - loads and stores that touch a chunk with its token bit set are flagged;
//   - ARM sets the token bit without writing data (the token value is
//     materialized into the outgoing packet on eviction);
//   - DISARM verifies the token bit, zeroes the line (+1 cycle, all banks),
//     and clears the bit; disarming an unarmed line is flagged;
//   - evicted lines with token bits have the token filled into the
//     writeback packet (counted, and for the L2/memory interface reported
//     per kilo-instruction as in §VI-B).
//
// The model is a one-pass latency calculator: each access is presented with
// the current cycle and returns its completion cycle, with MSHR occupancy,
// write-buffer capacity and DRAM bank/bus contention folded in.
//
// A set stores its lines as they fill, one way at a time up to its
// associativity, so a cache's host memory follows its resident lines, not
// its geometry. Table II's L2 has 32,768 lines, but no scale-3 cell of the
// 12 workloads (plain, ASan or REST-full) fills more than 4,677 of them
// (14%, sjeng under ASan), or more than 5 ways of any set. Allocated up
// front, its ways were 1 MiB of a 1.53 MB world. Allocating a whole 16-way
// set on its first touch is not enough: astar, sjeng and soplex touch all
// 2,048 L2 sets, as xalanc does under REST, and such a prototype moved a
// Figure 7 sweep's peak RSS only from 18.3 to 17.8 MB.
package cache

import "fmt"

// LineBytes is the cache line size (Table II: 64B blocks everywhere).
const LineBytes = 64

// TokenSource answers "which chunks of this line currently hold the token?"
// It abstracts the fill-time content detector: the hardware compares line
// data against the token register during the fill; we consult the
// architectural token state, which is equivalent by the content/tracker
// consistency invariant (see core.TokenTracker).
type TokenSource interface {
	LineTokenMask(lineAddr uint64) uint8
	// ChunksPerLine reports how many token chunks one line holds.
	ChunksPerLine() int
}

// Level is a memory level that can service 64B line fills/writebacks.
type Level interface {
	// Access starts a line read or writeback at cycle now and returns its
	// completion cycle.
	Access(now uint64, lineAddr uint64, write bool) uint64
}

// Config sizes one cache.
type Config struct {
	Name        string
	SizeBytes   int
	Ways        int
	HitCycles   uint64
	MSHRs       int // max distinct outstanding misses
	WriteBuf    int // write buffer entries (0 = no write buffer modelling)
	RESTEnabled bool
}

// Stats aggregates cache event counts.
type Stats struct {
	SnoopStats

	Accesses     uint64
	Hits         uint64
	Misses       uint64
	MergedMisses uint64 // misses merged into an in-flight MSHR
	Evictions    uint64
	Writebacks   uint64
	TokenFills   uint64 // fills where the detector found token chunks
	TokenEvicts  uint64 // evictions carrying token chunks
	TokenHits    uint64 // regular accesses that touched a token chunk
	DisarmZeroes uint64 // disarm line-zero operations (+1 cycle each)
	MSHRStalls   uint64
	WBufStalls   uint64
}

type cline struct {
	tag       uint64
	valid     bool
	dirty     bool
	shared    bool // a peer cache may hold a copy (MSI coherence)
	lastUse   uint64
	tokenMask uint8
}

// Cache is one set-associative write-back cache level.
type Cache struct {
	cfg      Config
	setShift uint
	setMask  uint64
	sets     [][]cline // each holds only the ways its set has filled
	next     Level
	tokens   TokenSource // nil when REST disabled or no tracker
	useTick  uint64

	// mshr holds the outstanding misses as a small bounded slice (at most
	// cfg.MSHRs live entries, a handful in Table II's configuration):
	// completed entries are pruned on every admit, so the structure never
	// grows with run length, and the linear scan beats hashing a map key on
	// every fill.
	mshr []mshrEntry
	wbuf []uint64 // completion cycles of outstanding writebacks

	group *snoopGroup // nil on single-core machines

	// OnTokenEvict, when non-nil, observes every eviction of a line whose
	// token mask is set, after the token value has been filled into the
	// outgoing packet (Table I, Eviction row). The fault-injection plane
	// hooks it to corrupt the writeback in flight (token-bit loss on L1-D
	// eviction, §V-B); it must never be set on measurement runs.
	OnTokenEvict func(lineAddr uint64, mask uint8)

	Stats Stats
}

// New builds a cache over the given lower level.
func New(cfg Config, next Level, tokens TokenSource) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: bad geometry %d/%d", cfg.Name, cfg.SizeBytes, cfg.Ways)
	}
	nLines := cfg.SizeBytes / LineBytes
	nSets := nLines / cfg.Ways
	if nSets == 0 || nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, nSets)
	}
	if cfg.MSHRs == 0 {
		cfg.MSHRs = 4
	}
	c := &Cache{
		cfg:      cfg,
		setShift: 6,
		setMask:  uint64(nSets - 1),
		sets:     make([][]cline, nSets),
		next:     next,
		mshr:     make([]mshrEntry, 0, cfg.MSHRs),
	}
	if cfg.RESTEnabled {
		c.tokens = tokens
	}
	return c, nil
}

// ReleaseTokenSource drops the token-source reference. Only valid once the
// cache will receive no further accesses: the fill-time detector consults
// the source on every REST-enabled access.
func (c *Cache) ReleaseTokenSource() { c.tokens = nil }

func (c *Cache) setIndex(lineAddr uint64) uint64 {
	return (lineAddr >> c.setShift) & c.setMask
}

// lookup returns the resident way holding lineAddr, or nil.
func (c *Cache) lookup(lineAddr uint64) *cline {
	set := c.sets[c.setIndex(lineAddr)]
	tag := lineAddr >> c.setShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// victim picks the way of lineAddr's set that the next fill overwrites: the
// first invalid resident way, else a new way while the set holds fewer than
// Ways lines, else the LRU way. A fully allocated set would pick the same
// way, because the ways past a set's resident count are exactly the ones it
// never filled.
//
// Growing a set can move it, so nothing may hold a *cline of a set across a
// victim call on that same set.
func (c *Cache) victim(lineAddr uint64) *cline {
	si := c.setIndex(lineAddr)
	set := c.sets[si]
	var v *cline
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if v == nil || set[i].lastUse < v.lastUse {
			v = &set[i]
		}
	}
	if len(set) < c.cfg.Ways {
		set = append(set, cline{})
		c.sets[si] = set
		return &set[len(set)-1]
	}
	return v
}

func (c *Cache) touch(l *cline) {
	c.useTick++
	l.lastUse = c.useTick
}

// mshrEntry is one outstanding miss: the line being filled and the cycle the
// fill completes.
type mshrEntry struct {
	addr  uint64
	ready uint64
}

// mshrFind returns the outstanding entry for lineAddr, or nil. Entries are
// unique per line address (mshrSet updates in place).
func (c *Cache) mshrFind(lineAddr uint64) *mshrEntry {
	for i := range c.mshr {
		if c.mshr[i].addr == lineAddr {
			return &c.mshr[i]
		}
	}
	return nil
}

// mshrSet records lineAddr's fill completion, reusing the line's existing
// entry if one is still tracked.
func (c *Cache) mshrSet(lineAddr, ready uint64) {
	if e := c.mshrFind(lineAddr); e != nil {
		e.ready = ready
		return
	}
	c.mshr = append(c.mshr, mshrEntry{addr: lineAddr, ready: ready})
}

// reapMSHRs prunes completed entries in place.
func (c *Cache) reapMSHRs(now uint64) {
	live := c.mshr[:0]
	for _, e := range c.mshr {
		if e.ready > now {
			live = append(live, e)
		}
	}
	c.mshr = live
}

// mshrAdmit blocks until an MSHR slot is free and returns the (possibly
// advanced) current cycle.
func (c *Cache) mshrAdmit(now uint64) uint64 {
	c.reapMSHRs(now)
	if len(c.mshr) < c.cfg.MSHRs {
		return now
	}
	// Stall until the earliest in-flight fill completes.
	earliest := ^uint64(0)
	for _, e := range c.mshr {
		if e.ready < earliest {
			earliest = e.ready
		}
	}
	c.Stats.MSHRStalls += earliest - now
	c.reapMSHRs(earliest)
	return earliest
}

// MSHROccupancy reports how many miss entries are currently tracked. Pruning
// on every admit bounds it by the configured MSHR count no matter how long
// the run is (regression-tested by TestMSHROccupancyBounded).
func (c *Cache) MSHROccupancy() int { return len(c.mshr) }

// MSHRCapacity reports the configured maximum outstanding misses.
func (c *Cache) MSHRCapacity() int { return c.cfg.MSHRs }

// wbufAdmit blocks until a write-buffer entry is free.
func (c *Cache) wbufAdmit(now uint64) uint64 {
	if c.cfg.WriteBuf == 0 {
		return now
	}
	live := c.wbuf[:0]
	for _, done := range c.wbuf {
		if done > now {
			live = append(live, done)
		}
	}
	c.wbuf = live
	if len(c.wbuf) < c.cfg.WriteBuf {
		return now
	}
	earliest := c.wbuf[0]
	for _, done := range c.wbuf {
		if done < earliest {
			earliest = done
		}
	}
	c.Stats.WBufStalls += earliest - now
	return c.wbufAdmit(earliest)
}

// evict prepares a victim way, issuing a writeback if dirty. Returns the way.
func (c *Cache) evict(now uint64, lineAddr uint64) *cline {
	v := c.victim(lineAddr)
	if v.valid {
		c.Stats.Evictions++
		if v.tokenMask != 0 {
			// The token value is filled into the outgoing packet (Table I,
			// Eviction row); content is already authoritative in memory.
			c.Stats.TokenEvicts++
			if c.OnTokenEvict != nil {
				c.OnTokenEvict(v.tag<<c.setShift, v.tokenMask)
			}
		}
		if v.dirty || v.tokenMask != 0 {
			c.Stats.Writebacks++
			wbDone := c.next.Access(c.wbufAdmit(now), v.tag<<c.setShift, true)
			if c.cfg.WriteBuf > 0 {
				c.wbuf = append(c.wbuf, wbDone)
			}
		}
	}
	return v
}

// fill brings lineAddr into the cache, handling MSHR merging, coherence and
// eviction. Exclusive fills (for writes, arms, disarms) invalidate peer
// copies; shared fills source dirty peer data via intervention. It returns
// the cycle at which the line is resident and the installed way.
func (c *Cache) fill(now uint64, lineAddr uint64, exclusive bool) (uint64, *cline) {
	// Merge into an outstanding fill for the same line.
	if e := c.mshrFind(lineAddr); e != nil && e.ready > now {
		c.Stats.MergedMisses++
		if l := c.lookup(lineAddr); l != nil {
			return e.ready, l
		}
		// The line will be installed by the primary miss; install now for
		// bookkeeping (one-pass model).
	}
	now = c.mshrAdmit(now)
	var snoopLat uint64
	if exclusive {
		snoopLat = c.snoopInvalidate(now, lineAddr)
	} else {
		snoopLat = c.snoopRead(now, lineAddr)
	}
	done := c.next.Access(now+c.cfg.HitCycles+snoopLat, lineAddr, false)
	c.mshrSet(lineAddr, done)

	v := c.evict(now, lineAddr)
	v.valid = true
	v.dirty = false
	v.shared = !exclusive && c.peerHolds(lineAddr)
	v.tag = lineAddr >> c.setShift
	v.tokenMask = 0
	if c.tokens != nil {
		// Fill-time content detector (Figure 4): compare incoming chunks
		// against the token register and set the per-chunk token bits.
		v.tokenMask = c.tokens.LineTokenMask(lineAddr)
		if v.tokenMask != 0 {
			c.Stats.TokenFills++
		}
	}
	c.touch(v)
	return done, v
}

// peerHolds reports whether any peer cache currently holds lineAddr.
func (c *Cache) peerHolds(lineAddr uint64) bool {
	if c.group == nil {
		return false
	}
	for _, peer := range c.group.members {
		if peer != c && peer.lookup(lineAddr) != nil {
			return true
		}
	}
	return false
}

// chunkMask computes which token-chunk bits the byte range [addr, addr+size)
// covers within its line, given chunks chunks per line.
func chunkMask(addr uint64, size uint8, chunks int) uint8 {
	if chunks <= 0 {
		return 0
	}
	chunkBytes := uint64(LineBytes / chunks)
	off := addr & (LineBytes - 1)
	end := off + uint64(size) - 1
	if end > LineBytes-1 {
		end = LineBytes - 1
	}
	var mask uint8
	for ch := off / chunkBytes; ch <= end/chunkBytes; ch++ {
		mask |= 1 << ch
	}
	return mask
}

// CWFAdvanceCycles is how much earlier the critical word arrives than the
// full line on a miss (critical-word-first fetching, §III-B "Exception
// Reporting"): the requested word leads the 64-byte transfer.
const CWFAdvanceCycles = 10

// AccessResult reports the outcome of a data access.
type AccessResult struct {
	// Done is the cycle the requested data is available. On misses this is
	// the critical word's arrival, CWFAdvanceCycles before the full line.
	Done     uint64
	Hit      bool
	TokenHit bool // the access touched a token chunk (REST violation)
	// FillDone is the cycle the whole line is resident (== Done on hits).
	// The token detector's verdict is only final at FillDone: secure mode
	// reports violations then (possibly after the load retired — the
	// imprecise-exception lag); debug mode holds suspicious loads at the
	// MSHRs until then.
	FillDone uint64
}

// Load performs a read of size bytes at addr.
func (c *Cache) Load(now uint64, addr uint64, size uint8) AccessResult {
	return c.access(now, addr, size, false)
}

// Store performs a write of size bytes at addr.
func (c *Cache) Store(now uint64, addr uint64, size uint8) AccessResult {
	return c.access(now, addr, size, true)
}

func (c *Cache) access(now uint64, addr uint64, size uint8, write bool) AccessResult {
	c.Stats.Accesses++
	lineAddr := addr &^ (LineBytes - 1)
	res := AccessResult{}

	l := c.lookup(lineAddr)
	if l != nil {
		c.Stats.Hits++
		res.Hit = true
		res.Done = now + c.cfg.HitCycles
		res.FillDone = res.Done
	} else {
		c.Stats.Misses++
		fillDone, fl := c.fill(now, lineAddr, write)
		l = fl
		res.FillDone = fillDone + c.cfg.HitCycles
		// Critical-word first: the requested word beats the full line.
		res.Done = res.FillDone
		if res.Done > now+c.cfg.HitCycles+CWFAdvanceCycles {
			res.Done -= CWFAdvanceCycles
		}
	}
	c.touch(l)

	if l.tokenMask != 0 && c.tokens != nil {
		if l.tokenMask&chunkMask(addr, size, c.tokens.ChunksPerLine()) != 0 {
			c.Stats.TokenHits++
			res.TokenHit = true
			return res // faulting access does not modify the line
		}
	}
	if write {
		if l.shared {
			// Upgrade: invalidate peer copies before taking ownership.
			lat := c.snoopInvalidate(res.Done, lineAddr)
			res.Done += lat
			l.shared = false
		}
		l.dirty = true
		if c.cfg.WriteBuf > 0 {
			// Store data passes through the write buffer into the array.
			c.wbufAdmit(now)
			c.wbuf = append(c.wbuf, res.Done)
		}
	}

	// An access straddling two lines touches the next line too.
	if (addr&(LineBytes-1))+uint64(size) > LineBytes {
		r2 := c.access(res.Done, lineAddr+LineBytes, 1, write)
		if r2.Done > res.Done {
			res.Done = r2.Done
		}
		res.TokenHit = res.TokenHit || r2.TokenHit
		res.Hit = res.Hit && r2.Hit
	}
	return res
}

// Arm executes the cache side of the ARM instruction (Table I, Arm row):
// hit sets the token bit; miss fetches the line (write-allocate) then sets
// it. The token value itself is NOT written into the data array — it is
// materialized on eviction — so an arm hit completes in a single cycle
// despite being a line-wide write (§III-B).
func (c *Cache) Arm(now uint64, addr uint64) AccessResult {
	c.Stats.Accesses++
	lineAddr := addr &^ (LineBytes - 1)
	res := AccessResult{}
	l := c.lookup(lineAddr)
	if l != nil {
		c.Stats.Hits++
		res.Hit = true
		res.Done = now + 1 // single-cycle on hit
		if l.shared {
			res.Done += c.snoopInvalidate(now, lineAddr)
			l.shared = false
		}
	} else {
		c.Stats.Misses++
		fillDone, fl := c.fill(now, lineAddr, true)
		l = fl
		res.Done = fillDone + 1
	}
	res.FillDone = res.Done
	c.touch(l)
	chunks := 1
	if c.tokens != nil {
		chunks = c.tokens.ChunksPerLine()
	}
	l.tokenMask |= chunkMask(addr, 1, chunks)
	l.dirty = true
	return res
}

// Disarm executes the cache side of the DISARM instruction (Table I, Disarm
// row): it verifies the token bit (flagging TokenHit=false violations via
// the returned Unarmed flag), clears it, and zeroes the line concurrently
// across all data banks, costing one extra cycle.
func (c *Cache) Disarm(now uint64, addr uint64) (AccessResult, bool) {
	c.Stats.Accesses++
	lineAddr := addr &^ (LineBytes - 1)
	res := AccessResult{}
	l := c.lookup(lineAddr)
	if l == nil {
		c.Stats.Misses++
		fillDone, fl := c.fill(now, lineAddr, true)
		l = fl
		now = fillDone
	} else {
		c.Stats.Hits++
		res.Hit = true
		if l.shared {
			now += c.snoopInvalidate(now, lineAddr)
			l.shared = false
		}
	}
	c.touch(l)
	chunks := 1
	if c.tokens != nil {
		chunks = c.tokens.ChunksPerLine()
	}
	bit := chunkMask(addr, 1, chunks)
	if l.tokenMask&bit == 0 {
		// Disarm of an unarmed location: REST exception.
		res.Done = now + 1
		res.FillDone = res.Done
		return res, false
	}
	l.tokenMask &^= bit
	l.dirty = true
	c.Stats.DisarmZeroes++
	res.Done = now + 2 // 1-cycle access + 1-cycle all-bank zeroing write
	res.FillDone = res.Done
	return res, true
}

// TokenMask exposes the token bits of the line containing addr (testing and
// conformance checks).
func (c *Cache) TokenMask(addr uint64) (uint8, bool) {
	l := c.lookup(addr &^ (LineBytes - 1))
	if l == nil {
		return 0, false
	}
	return l.tokenMask, true
}

// Contains reports whether the line holding addr is resident.
func (c *Cache) Contains(addr uint64) bool {
	return c.lookup(addr&^(LineBytes-1)) != nil
}

// Access implements Level, so a Cache can back another Cache.
func (c *Cache) Access(now uint64, lineAddr uint64, write bool) uint64 {
	if write {
		// Writeback from the level above: absorb into this level.
		c.Stats.Accesses++
		l := c.lookup(lineAddr)
		if l == nil {
			c.Stats.Misses++
			done, fl := c.fill(now, lineAddr, false)
			fl.dirty = true
			return done
		}
		c.Stats.Hits++
		l.dirty = true
		c.touch(l)
		return now + c.cfg.HitCycles
	}
	res := c.access(now, lineAddr, LineBytes, false)
	return res.Done
}
