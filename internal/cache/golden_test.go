package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// refCache is an obviously-correct reference model of a set-associative LRU
// cache: per-set slices ordered most-recent-first. The real cache's
// residency must match it access-for-access.
type refCache struct {
	sets      [][]uint64 // line addresses, MRU first
	ways      int
	nSets     uint64
	evictions uint64
}

func newRefCache(sizeBytes, ways int) *refCache {
	nSets := uint64(sizeBytes / LineBytes / ways)
	return &refCache{sets: make([][]uint64, nSets), ways: ways, nSets: nSets}
}

func (r *refCache) setOf(line uint64) int { return int((line >> 6) % r.nSets) }

// access touches a line, returns whether it hit, and applies LRU fill.
func (r *refCache) access(line uint64) bool {
	si := r.setOf(line)
	set := r.sets[si]
	for i, l := range set {
		if l == line {
			// Move to MRU.
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	// Miss: install at MRU, evict LRU if full.
	if len(set) >= r.ways {
		set = set[:r.ways-1]
		r.evictions++
	}
	r.sets[si] = append([]uint64{line}, set...)
	return false
}

func (r *refCache) contains(line uint64) bool {
	for _, l := range r.sets[r.setOf(line)] {
		if l == line {
			return true
		}
	}
	return false
}

// drop removes a line, as a peer's write invalidates it.
func (r *refCache) drop(line uint64) {
	si := r.setOf(line)
	for i, l := range r.sets[si] {
		if l == line {
			r.sets[si] = append(r.sets[si][:i], r.sets[si][i+1:]...)
			return
		}
	}
}

// residents returns the lines resident in line's set of c, sorted, and how
// many ways the set stores, holes included.
func residents(c *Cache, line uint64) (lines []uint64, stored int) {
	set := c.sets[c.setIndex(line)]
	for _, l := range set {
		if l.valid {
			lines = append(lines, l.tag<<c.setShift)
		}
	}
	slices.Sort(lines)
	return lines, len(set)
}

// contiguousLines is lines 0..n-1 of the address space.
func contiguousLines(n int) []uint64 {
	lines := make([]uint64, n)
	for i := range lines {
		lines[i] = uint64(i) * LineBytes
	}
	return lines
}

// skewedLines is n random lines of a cache with nSets sets, the set index
// drawn from an exponential with mean nSets/8: the first sets hold more
// candidate lines than they have ways, and the density falls through every
// fill level to sets that are never touched.
func skewedLines(r *rand.Rand, n, nSets int) []uint64 {
	lines := make([]uint64, n)
	for i := range lines {
		set := min(int(r.ExpFloat64()*float64(nSets/8)), nSets-1)
		tag := r.Intn(1 << 16)
		lines[i] = uint64(tag*nSets+set) * LineBytes
	}
	return lines
}

// TestCacheMatchesGoldenModel drives the real cache and the reference model
// with the same random access stream and checks hit/miss verdicts, eviction
// counts and the accessed set's residents agree at every step, and that no
// set ever stores more than Ways lines. The rows cover sets that all fill
// within a few hundred steps, Table II's L2 geometry with its sets at every
// fill level, and holes a coherence peer punches into full sets, which
// later fills must reuse without evicting.
func TestCacheMatchesGoldenModel(t *testing.T) {
	l2 := DefaultHierConfig().L2
	for _, tc := range []struct {
		name      string
		sizeBytes int
		ways      int
		lines     func(r *rand.Rand) []uint64
		seed      int64
		peer      bool // a peer cache stores to a random line every 4th step
	}{
		{"full-sets", 8192, 4, func(*rand.Rand) []uint64 { return contiguousLines(512) }, 6, false},
		{"table-II-L2", l2.SizeBytes, l2.Ways, func(r *rand.Rand) []uint64 {
			return skewedLines(r, 6000, l2.SizeBytes/LineBytes/l2.Ways)
		}, 11, false},
		{"peer-holes", 8192, 4, func(*rand.Rand) []uint64 { return contiguousLines(512) }, 12, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			next := &flatMem{lat: 0} // zero latency: no in-flight-fill ambiguity
			cfg := Config{SizeBytes: tc.sizeBytes, Ways: tc.ways, HitCycles: 1, MSHRs: 64}
			c, err := New(cfg, next, nil)
			if err != nil {
				t.Fatal(err)
			}
			peer, err := New(cfg, next, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.peer {
				ConnectPeers(c, peer)
			}
			ref := newRefCache(tc.sizeBytes, tc.ways)
			r := rand.New(rand.NewSource(tc.seed))
			lines := tc.lines(r)
			fillLevels := make([]bool, tc.ways+1)
			holesFilled := 0
			now := uint64(0)
			for step := 0; step < 20000; step++ {
				now += 10
				line := lines[r.Intn(len(lines))]
				if tc.peer && r.Intn(4) == 0 {
					peer.Store(now, line, 8)
					ref.drop(line)
					if c.Contains(line) {
						t.Fatalf("step %d: a peer store left %#x resident", step, line)
					}
					continue
				}
				before, stored := residents(c, line)
				hole := len(before) < stored
				var hit bool
				if r.Intn(2) == 0 {
					hit = c.Load(now, line+uint64(r.Intn(56)), 8).Hit
				} else {
					hit = c.Store(now, line+uint64(r.Intn(56)), 8).Hit
				}
				refHit := ref.access(line)
				if hit != refHit {
					t.Fatalf("step %d line %#x: cache hit=%v, golden=%v", step, line, hit, refHit)
				}
				if hole && !hit {
					holesFilled++
				}
				if c.Stats.Evictions != ref.evictions {
					t.Fatalf("step %d line %#x: %d evictions, golden %d", step, line, c.Stats.Evictions, ref.evictions)
				}
				got, stored := residents(c, line)
				want := slices.Clone(ref.sets[ref.setOf(line)])
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: %#x's set holds %#x, golden %#x", step, line, got, want)
				}
				if stored > tc.ways {
					t.Fatalf("step %d: %#x's set stores %d ways, more than %d", step, line, stored, tc.ways)
				}
				fillLevels[len(got)] = true
				// Spot-check residency of a random line.
				probe := lines[r.Intn(len(lines))]
				if c.Contains(probe) != ref.contains(probe) {
					t.Fatalf("step %d: residency of %#x diverges", step, probe)
				}
			}
			for _, cc := range []*Cache{c, peer} {
				for si, set := range cc.sets {
					if len(set) > tc.ways {
						t.Fatalf("set %d stores %d ways, more than %d", si, len(set), tc.ways)
					}
				}
			}
			for level := 1; level <= tc.ways; level++ {
				if !fillLevels[level] {
					t.Errorf("no accessed set ever held exactly %d lines", level)
				}
			}
			if tc.peer && holesFilled == 0 {
				t.Errorf("no miss filled a hole a peer store left")
			}
			t.Logf("%d evictions, %d holes refilled", c.Stats.Evictions, holesFilled)
		})
	}
}

// TestCacheGoldenWithTokens repeats the differential run with arm/disarm
// mixed in: token operations must not perturb LRU/residency behaviour
// (they are stores microarchitecturally).
func TestCacheGoldenWithTokens(t *testing.T) {
	tok := &fakeTokens{masks: map[uint64]uint8{}, chunks: 1}
	next := &flatMem{lat: 0}
	c, err := New(Config{SizeBytes: 8192, Ways: 4, HitCycles: 1, MSHRs: 64, RESTEnabled: true}, next, tok)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(8192, 4)
	armed := map[uint64]bool{}
	r := rand.New(rand.NewSource(8))
	now := uint64(0)
	for step := 0; step < 20000; step++ {
		now += 10
		line := uint64(r.Intn(256)) * 64
		switch r.Intn(4) {
		case 0: // arm
			c.Arm(now, line)
			tok.masks[line] = 1
			armed[line] = true
			ref.access(line)
		case 1: // disarm armed lines only (avoid architectural faults)
			if armed[line] {
				c.Disarm(now, line)
				delete(tok.masks, line)
				delete(armed, line)
				ref.access(line)
			}
		default: // regular access to unarmed lines
			if !armed[line] {
				hit := c.Load(now, line, 8).Hit
				if hit != ref.access(line) {
					t.Fatalf("step %d: hit/miss diverges at %#x", step, line)
				}
			}
		}
	}
	// Final full-state audit: every armed line's token bit matches, every
	// resident line agrees with the golden model.
	for line := uint64(0); line < 256*64; line += 64 {
		if c.Contains(line) != ref.contains(line) {
			t.Fatalf("final residency of %#x diverges", line)
		}
		if c.Contains(line) && armed[line] {
			if m, _ := c.TokenMask(line); m == 0 {
				t.Fatalf("armed resident line %#x lost its token bit", line)
			}
		}
	}
}
