package cache

import "rest/internal/obs"

// Probes is one cache level's metric handle set. The cache hot path keeps
// counting into its existing Stats struct fields; Record flushes those into
// the registry at end of run, so enabling observability costs nothing per
// access.
type Probes struct {
	Accesses     *obs.Counter
	Hits         *obs.Counter
	Misses       *obs.Counter
	MergedMisses *obs.Counter
	Evictions    *obs.Counter
	Writebacks   *obs.Counter
	TokenFills   *obs.Counter
	TokenEvicts  *obs.Counter
	TokenHits    *obs.Counter
	DisarmZeroes *obs.Counter
	MSHRStalls   *obs.Counter
	WBufStalls   *obs.Counter
}

// NewProbes registers the metric set for one level under
// "cache.<level>.*" (nil r -> nil probes).
func NewProbes(r *obs.Registry, level string) *Probes {
	if r == nil {
		return nil
	}
	pfx := "cache." + level + "."
	return &Probes{
		Accesses:     r.Counter(pfx + "accesses"),
		Hits:         r.Counter(pfx + "hits"),
		Misses:       r.Counter(pfx + "misses"),
		MergedMisses: r.Counter(pfx + "merged_misses"),
		Evictions:    r.Counter(pfx + "evictions"),
		Writebacks:   r.Counter(pfx + "writebacks"),
		TokenFills:   r.Counter(pfx + "token_fills"),
		TokenEvicts:  r.Counter(pfx + "token_evicts"),
		TokenHits:    r.Counter(pfx + "token_hits"),
		DisarmZeroes: r.Counter(pfx + "disarm_zeroes"),
		MSHRStalls:   r.Counter(pfx + "mshr_stalls"),
		WBufStalls:   r.Counter(pfx + "wbuf_stalls"),
	}
}

// Record flushes one level's Stats into the probes. Nil-safe.
func (p *Probes) Record(s *Stats) {
	if p == nil {
		return
	}
	p.Accesses.Add(s.Accesses)
	p.Hits.Add(s.Hits)
	p.Misses.Add(s.Misses)
	p.MergedMisses.Add(s.MergedMisses)
	p.Evictions.Add(s.Evictions)
	p.Writebacks.Add(s.Writebacks)
	p.TokenFills.Add(s.TokenFills)
	p.TokenEvicts.Add(s.TokenEvicts)
	p.TokenHits.Add(s.TokenHits)
	p.DisarmZeroes.Add(s.DisarmZeroes)
	p.MSHRStalls.Add(s.MSHRStalls)
	p.WBufStalls.Add(s.WBufStalls)
}

// RecordHierarchy flushes every level of a hierarchy plus the derived
// token-crossing count into r under cache.l1i/l1d/l2 (nil-safe on both
// sides).
func RecordHierarchy(r *obs.Registry, h *Hierarchy) {
	if r == nil || h == nil {
		return
	}
	NewProbes(r, "l1i").Record(&h.L1I.Stats)
	NewProbes(r, "l1d").Record(&h.L1D.Stats)
	NewProbes(r, "l2").Record(&h.L2.Stats)
	r.Counter("cache.token_l2mem_crossings").Add(h.TokenL2MemCrossings())
}
