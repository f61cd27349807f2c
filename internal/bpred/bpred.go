// Package bpred implements the branch prediction substrate used by the
// fetch stage of the timing model. The paper's gem5 configuration uses
// L-TAGE with 1+12 components and ~31k entries (Table II); we implement a
// TAGE predictor with a bimodal base table and geometrically growing tagged
// history tables, plus a branch target buffer and a return address stack for
// call/return targets.
package bpred

import (
	"fmt"
	"math"

	"rest/internal/isa"
)

// Config sizes the predictor. Zero values are replaced by defaults matching
// Table II's scale.
type Config struct {
	BimodalBits  int // log2 entries in base predictor (default 14 -> 16k)
	TaggedTables int // number of tagged components (default 12)
	TaggedBits   int // log2 entries per tagged table (default 10)
	TagWidth     int // tag bits per tagged entry (default 11, at most 16)
	MinHistory   int // shortest tagged history length (default 4)
	MaxHistory   int // longest tagged history length (default 640)
	BTBBits      int // log2 BTB entries (default 12)
	RASEntries   int // return address stack depth (default 32)
	LoopBits     int // log2 loop-predictor entries (default 8; <0 disables)
}

func (c *Config) applyDefaults() {
	if c.BimodalBits == 0 {
		c.BimodalBits = 14
	}
	if c.TaggedTables == 0 {
		c.TaggedTables = 12
	}
	if c.TaggedBits == 0 {
		c.TaggedBits = 10
	}
	if c.TagWidth == 0 {
		c.TagWidth = 11
	}
	if c.MinHistory == 0 {
		c.MinHistory = 4
	}
	if c.MaxHistory == 0 {
		c.MaxHistory = 640
	}
	if c.BTBBits == 0 {
		c.BTBBits = 12
	}
	if c.RASEntries == 0 {
		c.RASEntries = 32
	}
	if c.LoopBits == 0 {
		c.LoopBits = 8
	}
}

// taggedEntry is one tagged-table entry, 4 bytes: the tag fits 16 bits
// because New rejects a wider TagWidth.
type taggedEntry struct {
	tag    uint16
	ctr    int8  // 3-bit signed saturating: -4..3, taken when >= 0
	useful uint8 // 2-bit useful counter
}

// btbEntry is one BTB entry, 16 bytes: the valid flag is folded into the
// tag, which holds the filling branch's pc+1, so the zero entry is empty.
// Instruction addresses are isa.InstrBytes-aligned, so pc+1 never wraps.
type btbEntry struct {
	tag    uint64
	target uint64
}

// Predictor is a TAGE branch direction predictor with BTB and RAS. It is
// deliberately deterministic: allocation tie-breaking uses a simple LFSR.
type Predictor struct {
	cfg Config

	bimodal []int8 // 2-bit counters: -2..1, taken when >= 0

	tables    [][]taggedEntry
	histLen   []int
	ghist     []byte // global history bits, most recent at index 0 position ghead
	ghead     int
	foldedIdx []foldedHistory
	foldedTag [2][]foldedHistory

	btb  []btbEntry
	ras  []uint64
	rsp  int
	loop *loopPredictor // the "L" of L-TAGE; nil when disabled

	lfsr uint32

	// Stats.
	Lookups      uint64
	Mispredicts  uint64
	TargetMisses uint64
	RASCorrect   uint64
	RASWrong     uint64
}

// foldedHistory incrementally folds a long global history into idxBits.
type foldedHistory struct {
	comp    uint32
	origLen int
	outLen  int
	outPos  int
}

func (f *foldedHistory) update(newBit, oldBit uint32) {
	f.comp = (f.comp << 1) | newBit
	f.comp ^= oldBit << uint(f.outPos)
	f.comp ^= f.comp >> uint(f.outLen)
	f.comp &= (1 << uint(f.outLen)) - 1
}

// New builds a predictor. It panics on a TagWidth above 16, which the
// 16-bit tags of the tagged tables cannot hold.
func New(cfg Config) *Predictor {
	cfg.applyDefaults()
	if cfg.TagWidth > 16 {
		panic(fmt.Sprintf("bpred: tag width %d above 16 bits", cfg.TagWidth))
	}
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]int8, 1<<cfg.BimodalBits),
		btb:     make([]btbEntry, 1<<cfg.BTBBits),
		ras:     make([]uint64, cfg.RASEntries),
		lfsr:    0xACE1,
	}
	p.tables = make([][]taggedEntry, cfg.TaggedTables)
	p.histLen = make([]int, cfg.TaggedTables)
	p.foldedIdx = make([]foldedHistory, cfg.TaggedTables)
	p.foldedTag[0] = make([]foldedHistory, cfg.TaggedTables)
	p.foldedTag[1] = make([]foldedHistory, cfg.TaggedTables)
	// Geometric history lengths between MinHistory and MaxHistory.
	ratio := 1.0
	if cfg.TaggedTables > 1 {
		ratio = math.Pow(float64(cfg.MaxHistory)/float64(cfg.MinHistory), 1.0/float64(cfg.TaggedTables-1))
	}
	l := float64(cfg.MinHistory)
	for i := 0; i < cfg.TaggedTables; i++ {
		p.tables[i] = make([]taggedEntry, 1<<cfg.TaggedBits)
		p.histLen[i] = int(l + 0.5)
		if i > 0 && p.histLen[i] <= p.histLen[i-1] {
			p.histLen[i] = p.histLen[i-1] + 1
		}
		l *= ratio
		p.foldedIdx[i] = foldedHistory{origLen: p.histLen[i], outLen: cfg.TaggedBits}
		p.foldedIdx[i].outPos = p.histLen[i] % cfg.TaggedBits
		p.foldedTag[0][i] = foldedHistory{origLen: p.histLen[i], outLen: cfg.TagWidth}
		p.foldedTag[0][i].outPos = p.histLen[i] % cfg.TagWidth
		p.foldedTag[1][i] = foldedHistory{origLen: p.histLen[i], outLen: cfg.TagWidth - 1}
		p.foldedTag[1][i].outPos = p.histLen[i] % (cfg.TagWidth - 1)
	}
	p.ghist = make([]byte, cfg.MaxHistory+1)
	if cfg.LoopBits > 0 {
		p.loop = newLoopPredictor(cfg.LoopBits)
	}
	return p
}

func (p *Predictor) rand() uint32 {
	// 16-bit Galois LFSR.
	lsb := p.lfsr & 1
	p.lfsr >>= 1
	if lsb != 0 {
		p.lfsr ^= 0xB400
	}
	return p.lfsr
}

func (p *Predictor) bimodalIndex(pc uint64) int {
	return int((pc >> 4) & uint64(len(p.bimodal)-1))
}

func (p *Predictor) tableIndex(pc uint64, t int) int {
	h := p.foldedIdx[t].comp
	idx := uint32(pc>>4) ^ uint32(pc>>(uint(4+p.cfg.TaggedBits))) ^ h
	return int(idx & uint32(len(p.tables[t])-1))
}

func (p *Predictor) tableTag(pc uint64, t int) uint16 {
	tag := uint32(pc>>4) ^ p.foldedTag[0][t].comp ^ (p.foldedTag[1][t].comp << 1)
	return uint16(tag & ((1 << uint(p.cfg.TagWidth)) - 1))
}

// PredictDirection predicts taken/not-taken for a conditional branch at pc.
// It returns the prediction plus an opaque provider index used on update.
// A confident loop-predictor entry overrides the TAGE tables (L-TAGE).
func (p *Predictor) PredictDirection(pc uint64) (taken bool, provider int) {
	if p.loop != nil {
		if lt, confident := p.loop.predict(pc); confident {
			return lt, -2
		}
	}
	provider = -1
	for t := p.cfg.TaggedTables - 1; t >= 0; t-- {
		e := &p.tables[t][p.tableIndex(pc, t)]
		if e.tag == p.tableTag(pc, t) {
			return e.ctr >= 0, t
		}
	}
	return p.bimodal[p.bimodalIndex(pc)] >= 0, -1
}

// Update trains the predictor with the actual outcome. provider is the value
// returned by PredictDirection for the same branch. mispredicted reports
// whether the direction prediction was wrong (drives allocation).
func (p *Predictor) Update(pc uint64, taken bool, provider int, mispredicted bool) {
	if p.loop != nil {
		p.loop.update(pc, taken)
	}
	if provider == -2 {
		// Loop predictor provided; it trained above. Keep history current.
		p.pushHistory(taken)
		return
	}
	// Train provider.
	if provider >= 0 {
		e := &p.tables[provider][p.tableIndex(pc, provider)]
		if e.tag == p.tableTag(pc, provider) {
			e.ctr = satUpdate3(e.ctr, taken)
			if !mispredicted && e.useful < 3 {
				e.useful++
			}
		}
	} else {
		i := p.bimodalIndex(pc)
		p.bimodal[i] = satUpdate2(p.bimodal[i], taken)
	}

	// On a misprediction, allocate in a longer-history table.
	if mispredicted && provider < p.cfg.TaggedTables-1 {
		start := provider + 1
		// Randomize start a little, as TAGE does, to spread allocations.
		if start < p.cfg.TaggedTables-1 && p.rand()&1 == 0 {
			start++
		}
		for t := start; t < p.cfg.TaggedTables; t++ {
			e := &p.tables[t][p.tableIndex(pc, t)]
			if e.useful == 0 {
				e.tag = p.tableTag(pc, t)
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				break
			}
			e.useful--
		}
	}

	// Push outcome into global history and refresh folded histories.
	p.pushHistory(taken)
}

func (p *Predictor) pushHistory(taken bool) {
	// Shift history: index 0 is most recent.
	copy(p.ghist[1:], p.ghist[:len(p.ghist)-1])
	b := byte(0)
	if taken {
		b = 1
	}
	p.ghist[0] = b
	for t := 0; t < p.cfg.TaggedTables; t++ {
		old := uint32(p.ghist[p.histLen[t]])
		p.foldedIdx[t].update(uint32(b), old)
		p.foldedTag[0][t].update(uint32(b), old)
		p.foldedTag[1][t].update(uint32(b), old)
	}
}

func satUpdate3(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}

func satUpdate2(c int8, taken bool) int8 {
	if taken {
		if c < 1 {
			return c + 1
		}
		return c
	}
	if c > -2 {
		return c - 1
	}
	return c
}

// PredictTarget predicts the target of a taken control transfer at pc. For
// returns it pops the RAS; for others it consults the BTB.
func (p *Predictor) PredictTarget(pc uint64, op isa.Op) (uint64, bool) {
	if op == isa.OpRet {
		if p.rsp > 0 {
			return p.ras[p.rsp-1], true
		}
		return 0, false
	}
	e := &p.btb[p.btbIndex(pc)]
	if e.tag == pc+1 {
		return e.target, true
	}
	return 0, false
}

func (p *Predictor) btbIndex(pc uint64) int {
	return int((pc >> 4) & uint64(len(p.btb)-1))
}

// Resolve is the single entry point the fetch model uses: it predicts a
// branch, immediately learns the actual outcome, and reports whether the
// front end would have redirected (direction or target misprediction).
func (p *Predictor) Resolve(pc uint64, op isa.Op, taken bool, target uint64, returnAddr uint64) (mispredicted bool) {
	p.Lookups++
	switch {
	case op.IsCondBranch():
		pred, provider := p.PredictDirection(pc)
		mis := pred != taken
		if !mis && taken {
			// Direction right; target must also be right (BTB).
			if t, ok := p.PredictTarget(pc, op); !ok || t != target {
				mis = true
				p.TargetMisses++
			}
		}
		p.Update(pc, taken, provider, pred != taken)
		p.trainBTB(pc, taken, target)
		if mis {
			p.Mispredicts++
		}
		return mis

	case op == isa.OpRet:
		t, ok := p.PredictTarget(pc, op)
		if p.rsp > 0 {
			p.rsp--
		}
		mis := !ok || t != target
		if mis {
			p.RASWrong++
			p.Mispredicts++
		} else {
			p.RASCorrect++
		}
		return mis

	case op == isa.OpCall || op == isa.OpCallR:
		// Push the return address.
		if p.rsp < len(p.ras) {
			p.ras[p.rsp] = returnAddr
			p.rsp++
		} else {
			// Overflow: overwrite top (circular would also be fine).
			p.ras[len(p.ras)-1] = returnAddr
		}
		if op == isa.OpCall {
			// Direct call: target known at decode; no misprediction.
			p.trainBTB(pc, true, target)
			return false
		}
		// Indirect call: BTB target prediction.
		t, ok := p.PredictTarget(pc, op)
		p.trainBTB(pc, true, target)
		mis := !ok || t != target
		if mis {
			p.Mispredicts++
			p.TargetMisses++
		}
		return mis

	default: // OpJmp: direct, target known at decode.
		p.trainBTB(pc, true, target)
		return false
	}
}

func (p *Predictor) trainBTB(pc uint64, taken bool, target uint64) {
	if !taken {
		return
	}
	e := &p.btb[p.btbIndex(pc)]
	e.tag, e.target = pc+1, target
}

// Accuracy reports the fraction of resolved control transfers predicted
// correctly.
func (p *Predictor) Accuracy() float64 {
	if p.Lookups == 0 {
		return 1
	}
	return 1 - float64(p.Mispredicts)/float64(p.Lookups)
}
