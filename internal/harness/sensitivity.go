package harness

import (
	"rest/internal/cache"
	"rest/internal/core"
	"rest/internal/cpu"
	"rest/internal/prog"
)

// The Figure 8 timing-sensitivity sweep: the paper's headline overheads are
// produced by timing one fixed dynamic instruction stream under varying
// microarchitectural parameters (§VI). Each workload here runs two builds
// (plain and secure-full 64B) under nine timing variants, so every build's
// functional identity repeats nine times across the grid — the sweep the
// trace cache was built for: one capture, eight replays per build.

// Fig8SensitivityConfigs returns the timing-variant grid: {plain,
// secure-full} × nine timing points in two rows. The out-of-order row
// perturbs the Figure 8 machine (Table II baseline, single L1-D port pair,
// doubled L2 latency). The in-order row sweeps the memory hierarchy around
// the Figure 3 machine — the paper's overhead decomposition was measured on
// an in-order core (footnote 1), where REST's extra L1-D traffic is not
// hidden by the window, so the memory axes (L1/L2 latency, L2 capacity,
// DRAM timing, redirect penalty) are where its overhead sensitivity lives.
// Config names carry the variant suffix; the unsuffixed plain remains the
// overhead baseline, so the variant columns read as the absolute sensitivity
// of each (build × timing) point, the way Figure 8 reports its bars.
func Fig8SensitivityConfigs() []BinaryConfig {
	ports1 := cpu.DefaultConfig()
	ports1.LoadPorts, ports1.StorePorts = 1, 1
	l2slow := cache.DefaultHierConfig()
	l2slow.L2.HitCycles *= 2
	l1slow := cache.DefaultHierConfig()
	l1slow.L1I.HitCycles *= 2
	l1slow.L1D.HitCycles *= 2
	l2half := cache.DefaultHierConfig()
	l2half.L2.SizeBytes >>= 1
	dramslow := cache.DefaultHierConfig()
	dramslow.DRAM.CASCycles = 56
	dramslow.DRAM.RPCycles = 56
	dramslow.DRAM.RASCycles = 140
	fe2 := cpu.DefaultConfig()
	fe2.FrontendDepth *= 2
	variants := []struct {
		suffix  string
		cpu     *cpu.Config
		hier    *cache.HierConfig
		inOrder bool
	}{
		// Out-of-order row: the Figure 8 machine.
		{suffix: ""},
		{suffix: "+p1", cpu: &ports1},
		{suffix: "+l2x2", hier: &l2slow},
		// In-order row: the Figure 3 machine, swept across the memory
		// hierarchy.
		{suffix: "+io", inOrder: true},
		{suffix: "+io-l1x2", hier: &l1slow, inOrder: true},
		{suffix: "+io-l2x2", hier: &l2slow, inOrder: true},
		{suffix: "+io-l2half", hier: &l2half, inOrder: true},
		{suffix: "+io-dram2x", hier: &dramslow, inOrder: true},
		{suffix: "+io-fe2", cpu: &fe2, inOrder: true},
	}
	var out []BinaryConfig
	for _, v := range variants {
		out = append(out,
			BinaryConfig{
				Name: "plain" + v.suffix, Pass: prog.Plain(),
				CPU: v.cpu, Hier: v.hier, InOrder: v.inOrder,
			},
			BinaryConfig{
				Name: "secure-full" + v.suffix, Pass: prog.RESTFull(64), Mode: core.Secure,
				CPU: v.cpu, Hier: v.hier, InOrder: v.inOrder,
			},
		)
	}
	return out
}
