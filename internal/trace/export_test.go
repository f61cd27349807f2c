package trace

// RunShare reports the share of r's entries its encoding carries inside
// runs.
func RunShare(r *Recorder) float64 {
	if r.n == 0 {
		return 0
	}
	c := cursor{model: model{pred: make([]predictor, len(r.sites))}}
	var e [1]Entry
	in := 0
	for c.pos < r.n {
		// A block's first entry names its site, so it is never in a run
		// (and c.off still points into the previous block there).
		if c.pos&blockMask != 0 && (c.run != 0 || r.block(c.pos >> blockShift)[c.off] == hdrRun) {
			in++
		}
		r.decode(&c, e[:])
	}
	return float64(in) / float64(r.n)
}
