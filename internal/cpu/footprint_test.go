package cpu

import (
	"runtime"
	"runtime/debug"
	"testing"

	"rest/internal/bpred"
	"rest/internal/cache"
	"rest/internal/isa"
	"rest/internal/trace"
)

// TestRunFootprint is a deterministic memory gate on the OoO core: with the
// GC off, it counts the bytes one Pipeline.Run allocates over a short loop
// of ALU ops, loads, stores and branches with a small working set, on a
// hierarchy and predictor built and warmed beforehand. Every timed cell
// makes one Run, and its bandwidth tables are most of what it holds: the
// issue and load-port tables take 64 KiB each, while fetch, commit and the
// store port each keep one (cycle, count) pair.
//
// Measured with Go 1.24: 152,704 B in 14 allocations; with a third 64 KiB
// table for the store port, 218,240 B. The bound keeps ~20% headroom for
// the runtime and append growth of go.mod's older Go.
func TestRunFootprint(t *testing.T) {
	const maxBytes = 180 << 10
	h, err := cache.NewHierarchy(cache.DefaultHierConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pred := bpred.New(bpred.Config{})
	es := smallLoop(4000)
	// Warm the hierarchy's sets, so the measured Run fills no new lines.
	New(DefaultConfig(), h, pred).Run(trace.NewSliceReader(es))
	p, r := New(DefaultConfig(), h, pred), trace.NewSliceReader(es)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.Run(r)
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d B in %d allocations (bound %d B)", bytes, after.Mallocs-before.Mallocs, maxBytes)
	if bytes > maxBytes {
		t.Errorf("one Run allocated %d B, over the %d B bound", bytes, maxBytes)
	}
}

// smallLoop builds n entries of a 16-instruction loop body: stores and
// loads over eight lines, dependent ALU ops and a taken back branch.
func smallLoop(n int) []trace.Entry {
	es := make([]trace.Entry, n)
	for i := range es {
		pc := 0x400000 + uint64(i%16)*16
		e := trace.Entry{Seq: uint64(i), PC: pc, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
		switch i % 16 {
		case 3, 7:
			e.Op, e.Src1, e.Addr, e.Size = isa.OpStore, 1, 0x2000_0000+uint64(i%64)*8, 8
		case 4, 9, 12:
			e.Op, e.Dst, e.Addr, e.Size = isa.OpLoad, 2, 0x2000_0000+uint64(i%128)*4, 8
		case 15:
			e.Op, e.Taken, e.Target = isa.OpBne, true, 0x400000
		default:
			e.Op, e.Dst, e.Src1 = isa.OpAddI, 1, 2
		}
		es[i] = e
	}
	return es
}
