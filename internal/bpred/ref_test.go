package bpred

import (
	"math"
	"math/rand"
	"testing"

	"rest/internal/isa"
)

// refPredictor is the predictor as it was first written: 8-byte tagged
// entries with a 32-bit tag, and 24-byte BTB entries with a separate valid
// flag. Predictor packs the first into 4 bytes and the second into 16; the
// differential tests below hold it to this reference. The folded histories
// and the loop predictor are shared, as neither changed.
type refPredictor struct {
	cfg Config

	bimodal   []int8
	tables    [][]refTaggedEntry
	histLen   []int
	ghist     []byte
	foldedIdx []foldedHistory
	foldedTag [2][]foldedHistory

	btb  []refBTBEntry
	ras  []uint64
	rsp  int
	loop *loopPredictor

	lfsr uint32

	Lookups, Mispredicts, TargetMisses, RASCorrect, RASWrong uint64
}

type refTaggedEntry struct {
	tag    uint32
	ctr    int8
	useful uint8
}

type refBTBEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

func newRefPredictor(cfg Config) *refPredictor {
	cfg.applyDefaults()
	p := &refPredictor{
		cfg:     cfg,
		bimodal: make([]int8, 1<<cfg.BimodalBits),
		btb:     make([]refBTBEntry, 1<<cfg.BTBBits),
		ras:     make([]uint64, cfg.RASEntries),
		lfsr:    0xACE1,
	}
	p.tables = make([][]refTaggedEntry, cfg.TaggedTables)
	p.histLen = make([]int, cfg.TaggedTables)
	p.foldedIdx = make([]foldedHistory, cfg.TaggedTables)
	p.foldedTag[0] = make([]foldedHistory, cfg.TaggedTables)
	p.foldedTag[1] = make([]foldedHistory, cfg.TaggedTables)
	ratio := 1.0
	if cfg.TaggedTables > 1 {
		ratio = math.Pow(float64(cfg.MaxHistory)/float64(cfg.MinHistory), 1.0/float64(cfg.TaggedTables-1))
	}
	l := float64(cfg.MinHistory)
	for i := 0; i < cfg.TaggedTables; i++ {
		p.tables[i] = make([]refTaggedEntry, 1<<cfg.TaggedBits)
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

func (p *refPredictor) rand() uint32 {
	lsb := p.lfsr & 1
	p.lfsr >>= 1
	if lsb != 0 {
		p.lfsr ^= 0xB400
	}
	return p.lfsr
}

func (p *refPredictor) tableIndex(pc uint64, t int) int {
	h := p.foldedIdx[t].comp
	idx := uint32(pc>>4) ^ uint32(pc>>(uint(4+p.cfg.TaggedBits))) ^ h
	return int(idx & uint32(len(p.tables[t])-1))
}

func (p *refPredictor) tableTag(pc uint64, t int) uint32 {
	tag := uint32(pc>>4) ^ p.foldedTag[0][t].comp ^ (p.foldedTag[1][t].comp << 1)
	return tag & ((1 << uint(p.cfg.TagWidth)) - 1)
}

func (p *refPredictor) predictDirection(pc uint64) (bool, int) {
	if p.loop != nil {
		if lt, confident := p.loop.predict(pc); confident {
			return lt, -2
		}
	}
	for t := p.cfg.TaggedTables - 1; t >= 0; t-- {
		e := &p.tables[t][p.tableIndex(pc, t)]
		if e.tag == p.tableTag(pc, t) {
			return e.ctr >= 0, t
		}
	}
	return p.bimodal[(pc>>4)&uint64(len(p.bimodal)-1)] >= 0, -1
}

func (p *refPredictor) update(pc uint64, taken bool, provider int, mispredicted bool) {
	if p.loop != nil {
		p.loop.update(pc, taken)
	}
	if provider == -2 {
		p.pushHistory(taken)
		return
	}
	if provider >= 0 {
		e := &p.tables[provider][p.tableIndex(pc, provider)]
		if e.tag == p.tableTag(pc, provider) {
			e.ctr = satUpdate3(e.ctr, taken)
			if !mispredicted && e.useful < 3 {
				e.useful++
			}
		}
	} else {
		i := (pc >> 4) & uint64(len(p.bimodal)-1)
		p.bimodal[i] = satUpdate2(p.bimodal[i], taken)
	}
	if mispredicted && provider < p.cfg.TaggedTables-1 {
		start := provider + 1
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
	p.pushHistory(taken)
}

func (p *refPredictor) pushHistory(taken bool) {
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

func (p *refPredictor) predictTarget(pc uint64, op isa.Op) (uint64, bool) {
	if op == isa.OpRet {
		if p.rsp > 0 {
			return p.ras[p.rsp-1], true
		}
		return 0, false
	}
	e := &p.btb[(pc>>4)&uint64(len(p.btb)-1)]
	if e.valid && e.tag == pc {
		return e.target, true
	}
	return 0, false
}

func (p *refPredictor) trainBTB(pc uint64, taken bool, target uint64) {
	if !taken {
		return
	}
	e := &p.btb[(pc>>4)&uint64(len(p.btb)-1)]
	e.valid, e.tag, e.target = true, pc, target
}

func (p *refPredictor) Resolve(pc uint64, op isa.Op, taken bool, target uint64, returnAddr uint64) bool {
	p.Lookups++
	switch {
	case op.IsCondBranch():
		pred, provider := p.predictDirection(pc)
		mis := pred != taken
		if !mis && taken {
			if t, ok := p.predictTarget(pc, op); !ok || t != target {
				mis = true
				p.TargetMisses++
			}
		}
		p.update(pc, taken, provider, pred != taken)
		p.trainBTB(pc, taken, target)
		if mis {
			p.Mispredicts++
		}
		return mis

	case op == isa.OpRet:
		t, ok := p.predictTarget(pc, op)
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
		if p.rsp < len(p.ras) {
			p.ras[p.rsp] = returnAddr
			p.rsp++
		} else {
			p.ras[len(p.ras)-1] = returnAddr
		}
		if op == isa.OpCall {
			p.trainBTB(pc, true, target)
			return false
		}
		t, ok := p.predictTarget(pc, op)
		p.trainBTB(pc, true, target)
		mis := !ok || t != target
		if mis {
			p.Mispredicts++
			p.TargetMisses++
		}
		return mis

	default:
		p.trainBTB(pc, true, target)
		return false
	}
}

// refConfigs are the predictor shapes the differential tests run: Table
// II's, a tiny one whose every table collides constantly, and the widest
// tag New accepts over small tables.
var refConfigs = []Config{
	{},
	{BimodalBits: 3, TaggedTables: 4, TaggedBits: 2, TagWidth: 3, MinHistory: 2, MaxHistory: 24, BTBBits: 2, RASEntries: 3, LoopBits: 1},
	{BimodalBits: 6, TaggedTables: 6, TaggedBits: 4, TagWidth: 16, MinHistory: 3, MaxHistory: 200, BTBBits: 4, RASEntries: 8, LoopBits: -1},
}

// streamPC spells an instruction address from one byte. Every address is
// isa.InstrBytes-aligned. Bits 0-2 pick the low index bits, bits 3-4 add
// multiples of 2^16 (same BTB index), bit 5 adds 2^18 (same bimodal and
// BTB index too), and bits 6-7 add multiples of 2^28, which leave every
// index and every tag of Table II's predictor unchanged: such addresses
// alias everywhere but in the BTB's full-address tag.
func streamPC(b byte) uint64 {
	return uint64(b&7)<<4 | uint64(b>>3&3)<<16 | uint64(b>>5&1)<<18 | uint64(b>>6)<<28
}

// matchReference replays the branch stream that prog spells, three bytes a
// step, cycled for steps steps, through a Predictor and a refPredictor of
// cfg, and fails at the first Resolve result or counter that differs. A
// step's first byte is the branch's address (streamPC); the second is its
// target, the fall-through when below 0x80 and streamPC of the byte
// otherwise; the third's bit 0 is the direction of a conditional branch,
// and its bits 1-3 the kind: 0-3 a conditional branch (a different
// condition each), 4 a direct call, 5 an indirect call, 6 a return and 7 a
// jump. A return goes back to the latest call that has not yet returned
// when bit 4 is clear, so the RAS predicts most returns, and to the target
// byte's address when it is set.
func matchReference(t *testing.T, cfg Config, prog []byte, steps int) {
	t.Helper()
	if len(prog) < 3 {
		return
	}
	p, ref := New(cfg), newRefPredictor(cfg)
	conds := [4]isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBgeu}
	var calls []uint64
	for i := 0; i < steps; i++ {
		s := prog[i%(len(prog)/3)*3:][:3]
		pc := 0x400000 + streamPC(s[0])
		target := pc + isa.InstrBytes
		if s[1] >= 0x80 {
			target = 0x400000 + streamPC(s[1])
		}
		taken := s[2]&1 != 0
		var op isa.Op
		switch k := s[2] >> 1 & 7; k {
		case 4:
			op = isa.OpCall
		case 5:
			op = isa.OpCallR
		case 6:
			op, taken = isa.OpRet, true
			if n := len(calls); n > 0 && s[2]&0x10 == 0 {
				target = calls[n-1]
				calls = calls[:n-1]
			}
		case 7:
			op, taken = isa.OpJmp, true
		default:
			op = conds[k]
		}
		if op == isa.OpCall || op == isa.OpCallR {
			taken = true
			calls = append(calls, pc+isa.InstrBytes)
		}
		got := p.Resolve(pc, op, taken, target, pc+isa.InstrBytes)
		want := ref.Resolve(pc, op, taken, target, pc+isa.InstrBytes)
		if got != want {
			t.Fatalf("step %d: Resolve(%#x, %v, taken %v, %#x) = %v, reference %v", i, pc, op, taken, target, got, want)
		}
		if g, w := [5]uint64{p.Lookups, p.Mispredicts, p.TargetMisses, p.RASCorrect, p.RASWrong},
			[5]uint64{ref.Lookups, ref.Mispredicts, ref.TargetMisses, ref.RASCorrect, ref.RASWrong}; g != w {
			t.Fatalf("step %d: counters (lookups, mispredicts, target misses, RAS correct, RAS wrong) = %v, reference %v", i, g, w)
		}
	}
}

// TestPredictorMatchesReference drives random branch streams through the
// packed Predictor and refPredictor in every refConfigs shape. Each stream
// repeats a random body many times with a little noise, so the tables
// learn (TAGE and loop-predictor hits, BTB and RAS hits) and keep
// allocating and evicting over colliding addresses.
func TestPredictorMatchesReference(t *testing.T) {
	for ci, cfg := range refConfigs {
		for seed := int64(1); seed <= 6; seed++ {
			r := rand.New(rand.NewSource(seed*10 + int64(ci)))
			prog := make([]byte, 3*(2+r.Intn(40)))
			r.Read(prog)
			if seed%2 == 0 {
				// Mostly conditional branches, with a bias to taken.
				for i := 2; i < len(prog); i += 3 {
					if r.Intn(4) != 0 {
						prog[i] = prog[i]&^0x0e | 1
					}
				}
			}
			matchReference(t, cfg, prog, 20000)
		}
	}
}

// FuzzPredictorMatchesReference is TestPredictorMatchesReference over any
// stream: prog spells it as matchReference reads it, steps cycles it, and
// shape picks the refConfigs entry. The committed corpus under
// testdata/fuzz/FuzzPredictorMatchesReference seeds it.
func FuzzPredictorMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte, steps uint16, shape uint8) {
		matchReference(t, refConfigs[int(shape)%len(refConfigs)], prog, int(steps))
	})
}

// TestNewRejectsWideTags pins the one limit the 16-bit tags impose.
func TestNewRejectsWideTags(t *testing.T) {
	New(Config{TagWidth: 16})
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a 17-bit tag width")
		}
	}()
	New(Config{TagWidth: 17})
}
