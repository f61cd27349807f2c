package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"rest/internal/bpred"
	"rest/internal/cache"
	"rest/internal/core"
	"rest/internal/cpu"
	"rest/internal/harness"
	"rest/internal/isa"
	"rest/internal/persist"
	"rest/internal/prog"
	"rest/internal/rt"
	"rest/internal/trace"
	"rest/internal/workload"
	"rest/internal/world"
)

// The decomposition rebuilds, in this process and on one goroutine, every
// cell of a cycle matrix a workload printed, by calling each layer's public
// entry points in turn. Each call is a span, so a layer's throughput is its
// work count over its spans' time; and every cell's cycles must equal the
// untraced report's, or the run fails.
//
// Per functional identity (a workload under one build) it calls:
//
//	world.Build + World.RunFunctional      sim: functional execution
//	world.Build + Recorder.AppendFrom      trace: capture (execution + recording)
//	Replayer.ReadBatch                     trace: replay, drained
//	world.BuildReplay + World.ReplayTimed  cpu: once per cell of the identity, and
//	                                       once in order for a plain build the
//	                                       grid times on no in-order core
//	bpred.New + Predictor.Resolve          bpred: every branch, as the cores call it
//	cache.NewHierarchy + fetch/load/store  cache: every fetch line, load and store
//	Cache.StoreTrace / LoadTrace           persist: trace tier, plain builds only
//	Cache.StoreResult / LoadResult         persist: result tier, once per cell

// grid is one restbench sweep: its workloads and configs, assembled as
// cmd/restbench assembles them.
type grid struct {
	name string
	wls  []workload.Workload
	cfgs []harness.BinaryConfig
}

// gridFor recognises which sweep printed m by its config columns.
func gridFor(m csvMatrix, in SeedInputs) (grid, error) {
	fig7 := workload.All()
	if in.Variants {
		fig7 = workload.AllVariants()
	}
	for _, g := range []grid{
		{"fig7", fig7, harness.Fig7Configs()},
		{"fig8", workload.All(), append(harness.Fig8Configs(), harness.BinaryConfig{Name: "plain", Pass: prog.Plain()})},
		{"fig8sens", workload.All(), harness.Fig8SensitivityConfigs()},
	} {
		if strings.Join(configNames(g.cfgs), ",") != strings.Join(m.Configs, ",") {
			continue
		}
		if len(g.wls) != len(m.Workloads) {
			return grid{}, fmt.Errorf("%s matrix has %d rows, the grid %d", g.name, len(m.Workloads), len(g.wls))
		}
		for i, wl := range g.wls {
			if wl.Name != m.Workloads[i] {
				return grid{}, fmt.Errorf("%s matrix row %d is %s, the grid's %s", g.name, i, m.Workloads[i], wl.Name)
			}
		}
		return g, nil
	}
	return grid{}, fmt.Errorf("no sweep has the config columns %v", m.Configs)
}

func configNames(cfgs []harness.BinaryConfig) []string {
	out := make([]string, len(cfgs))
	for i, c := range cfgs {
		out[i] = c.Name
	}
	return out
}

// identity is a cell's functional identity: cells that share it execute the
// same dynamic instruction stream and differ only in timing.
type identity struct {
	pass      prog.PassConfig
	mode      core.Mode
	intercept int8 // -1 flavour default, 0 off, 1 on
}

func identityOf(c harness.BinaryConfig) identity {
	id := identity{pass: c.Pass.Normalized(), mode: c.Mode, intercept: -1}
	if c.InterceptLibc != nil {
		id.intercept = 0
		if *c.InterceptLibc {
			id.intercept = 1
		}
	}
	return id
}

// identities groups config indexes by functional identity, in grid order.
func identities(cfgs []harness.BinaryConfig) [][]int {
	var out [][]int
	at := map[identity]int{}
	for i, c := range cfgs {
		id := identityOf(c)
		k, ok := at[id]
		if !ok {
			k = len(out)
			at[id] = k
			out = append(out, nil)
		}
		out[k] = append(out[k], i)
	}
	return out
}

// counts are a decomposition's work counts; the times come from its spans.
type counts struct {
	// entries counts trace entries: each is executed once by RunFunctional,
	// once by the capture and drained once by the replay.
	entries, traceBytes                  uint64
	oooInstrs, ioInstrs, replays, allocs uint64
	cells, cycles                        uint64
	resolves, mispredicts                uint64
	accesses, l1dAccesses, l1dMisses     uint64
	putBytes, diskBytes                  uint64
}

func (c *counts) add(o counts) {
	c.entries += o.entries
	c.traceBytes += o.traceBytes
	c.oooInstrs += o.oooInstrs
	c.ioInstrs += o.ioInstrs
	c.replays += o.replays
	c.allocs += o.allocs
	c.cells += o.cells
	c.cycles += o.cycles
	c.resolves += o.resolves
	c.mispredicts += o.mispredicts
	c.accesses += o.accesses
	c.l1dAccesses += o.l1dAccesses
	c.l1dMisses += o.l1dMisses
	c.putBytes += o.putBytes
	c.diskBytes += o.diskBytes
}

// gridPart is one grid's decomposition: the matrix it reproduced, its work
// counts and the spans it recorded.
type gridPart struct {
	matrix csvMatrix
	counts
	spans spanRange
}

// decomposer decomposes one grid.
type decomposer struct {
	scale int64
	spans *spanLog
	store *persist.Cache
	// Buffers reused from one identity to the next.
	buf      []trace.Entry
	branches []branch
	accs     []memAccess
	counts
}

// decompose rebuilds every cell of the grid g, whose report printed the
// matrix ref. dir is an empty directory for the persist layer's store.
func decompose(g grid, ref csvMatrix, scale int64, dir string, spans *spanLog) (*gridPart, error) {
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	d := &decomposer{scale: scale, spans: spans, store: store, buf: make([]trace.Entry, 256)}
	from := spans.mark()
	spans.timed("decompose", g.name, func() {
		for _, wl := range g.wls {
			for _, idx := range identities(g.cfgs) {
				if err = d.identity(g, wl, idx, ref); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if want := len(ref.Workloads) * len(ref.Configs); d.cells != uint64(want) {
		return nil, incorrect("%s: decomposition checked %d cells of %d", g.name, d.cells, want)
	}
	return &gridPart{matrix: ref, counts: d.counts, spans: spanRange{from, spans.mark()}}, nil
}

// identity decomposes the cells idx of one workload's grid row, which share
// a functional identity.
func (d *decomposer) identity(g grid, wl workload.Workload, idx []int, ref csvMatrix) (err error) {
	lead := g.cfgs[idx[0]]
	cell := g.name + ":" + wl.Name + "/" + lead.Name
	d.spans.timed("identity", cell, func() { err = d.identityCells(g, wl, idx, ref, cell) })
	return err
}

func (d *decomposer) identityCells(g grid, wl workload.Workload, idx []int, ref csvMatrix, cell string) error {
	lead := g.cfgs[idx[0]]
	spec := world.Spec{
		Pass: lead.Pass, Mode: lead.Mode, Width: core.Width(lead.Pass.TokenWidth),
		InterceptLibc: lead.InterceptLibc,
	}
	var w *world.World
	var err error
	d.spans.timed("world.build", cell, func() { w, err = world.Build(spec, wl.Build(d.scale)) })
	if err != nil {
		return fmt.Errorf("%s: %w", cell, err)
	}
	var out world.Outcome
	d.spans.timed("sim.run", cell, func() { out = w.RunFunctional() })
	if out.Err != nil || out.Detected() {
		return fmt.Errorf("%s: functional run: %s", cell, out)
	}

	d.spans.timed("world.build", cell, func() { w, err = world.Build(spec, wl.Build(d.scale)) })
	if err != nil {
		return fmt.Errorf("%s: %w", cell, err)
	}
	rec := trace.NewRecorder(tokenWidth(lead.Pass), 0)
	defer rec.Release()
	var n int
	d.spans.timed("trace.capture", cell, func() { n = rec.AppendFrom(w.Machine) })
	if w.Machine.Checksum() != out.Checksum {
		return incorrect("%s: capture checksum %x, functional run %x", cell, w.Machine.Checksum(), out.Checksum)
	}
	d.entries += uint64(n)
	d.traceBytes += rec.Bytes()

	drained := 0
	d.spans.timed("trace.replay", cell, func() {
		rp := rec.Replayer()
		for k := rp.ReadBatch(d.buf); k > 0; k = rp.ReadBatch(d.buf) {
			drained += k
		}
	})
	if drained != n {
		return incorrect("%s: replayed %d entries of %d captured", cell, drained, n)
	}
	// Every core resolves every branch through the predictor in trace order,
	// so all of the identity's cells must count the same mispredicts.
	var mispredicts []uint64
	inOrder := false
	for _, i := range idx {
		cfg := g.cfgs[i]
		st, err := d.replay(g.name, wl.Name, cfg, rec, out, n)
		if err != nil {
			return err
		}
		want, ok := ref.Cycles[wl.Name][cfg.Name]
		if !ok || st.Cycles != want {
			return incorrect("%s:%s/%s: decomposition gives %d cycles, the report %d", g.name, wl.Name, cfg.Name, st.Cycles, want)
		}
		if err := d.storeResult(g.name+":"+wl.Name+"/"+cfg.Name, st, out.Checksum); err != nil {
			return err
		}
		d.cells++
		d.cycles += st.Cycles
		mispredicts = append(mispredicts, st.Mispredicts)
		inOrder = inOrder || cfg.InOrder
	}
	// Two kinds of work no report checks, an in-order replay of a build the
	// grid times on no in-order core and the trace tier's round trip, are
	// done for plain builds only. For every build they would add a quarter
	// to the largest traced run (seed 2, figs-store-warm), which on a slow
	// host comes near its time limit.
	plain := lead.Pass.Normalized().Flavour == rt.Plain
	if plain && !inOrder {
		io := harness.BinaryConfig{Name: lead.Name + "+io", Pass: lead.Pass, Mode: lead.Mode, InterceptLibc: lead.InterceptLibc, InOrder: true}
		st, err := d.replay(g.name, wl.Name, io, rec, out, n)
		if err != nil {
			return err
		}
		mispredicts = append(mispredicts, st.Mispredicts)
	}
	if err := d.predict(rec, cell, mispredicts); err != nil {
		return err
	}
	if err := d.access(rec, cell); err != nil {
		return err
	}
	if !plain {
		return nil
	}
	return d.storeTrace(rec, out.Checksum, cell)
}

// tokenWidth is the token width a capture's replay shadow tracks: the
// pass's for REST builds, 0 otherwise.
func tokenWidth(p prog.PassConfig) uint64 {
	if p = p.Normalized(); p.Flavour == rt.REST {
		return p.TokenWidth
	}
	return 0
}

// replay times one cell's timing model over the captured trace. Allocations
// are counted around it, outside its spans.
func (d *decomposer) replay(g, wl string, cfg harness.BinaryConfig, rec *trace.Recorder, captured world.Outcome, n int) (*cpu.Stats, error) {
	cell := g + ":" + wl + "/" + cfg.Name
	rp := rec.Replayer()
	var tokens cache.TokenSource
	if rec.TokenWidth() != 0 {
		tokens = rp
	}
	spec := world.Spec{
		Pass: cfg.Pass, Mode: cfg.Mode, Width: core.Width(cfg.Pass.TokenWidth),
		InterceptLibc: cfg.InterceptLibc, InOrder: cfg.InOrder, CPU: cfg.CPU, Hier: cfg.Hier,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var w *world.World
	var err error
	d.spans.timed("world.build_replay", cell, func() { w, err = world.BuildReplay(spec, tokens) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cell, err)
	}
	name := "cpu.ooo"
	if cfg.InOrder {
		name = "cpu.inorder"
	}
	var st *cpu.Stats
	var out world.Outcome
	d.spans.timed(name, cell, func() { st, out = w.ReplayTimed(rp, captured) })
	runtime.ReadMemStats(&after)
	if out.Err != nil || out.Detected() {
		return nil, fmt.Errorf("%s: replay: %s", cell, out)
	}
	if st.Instructions != uint64(n) {
		return nil, incorrect("%s: replay committed %d instructions of %d", cell, st.Instructions, n)
	}
	d.replays++
	d.allocs += after.Mallocs - before.Mallocs
	if cfg.InOrder {
		d.ioInstrs += st.Instructions
	} else {
		d.oooInstrs += st.Instructions
	}
	return st, nil
}

// branch is one branch entry's arguments to Predictor.Resolve.
type branch struct {
	pc, target uint64
	op         isa.Op
	taken      bool
}

// predict feeds a fresh predictor every branch of the trace with the
// arguments the cores pass to Resolve; its mispredicts must equal each
// replayed cell's.
func (d *decomposer) predict(rec *trace.Recorder, cell string, want []uint64) error {
	bs := d.branches[:0]
	for i := 0; i < rec.Len(); i++ {
		if e := rec.At(i); e.Op.IsBranch() {
			bs = append(bs, branch{e.PC, e.Target, e.Op, e.Taken})
		}
	}
	d.branches = bs
	var mis uint64
	d.spans.timed("bpred.resolve", cell, func() {
		p := bpred.New(bpred.Config{})
		for _, b := range bs {
			if p.Resolve(b.pc, b.op, b.taken, b.target, b.pc+isa.InstrBytes) {
				mis++
			}
		}
	})
	for _, w := range want {
		if w != mis {
			return incorrect("%s: predictor alone mispredicts %d branches, a replayed core %d", cell, mis, w)
		}
	}
	d.resolves += uint64(len(bs))
	d.mispredicts += mis
	return nil
}

// Kinds of memory access the cache layer is fed.
const (
	accFetch = iota
	accLoad
	accStore
)

type memAccess struct {
	addr uint64
	size uint8
	kind uint8
}

// access feeds a fresh hierarchy the trace's instruction fetches (one per
// new line, and after every branch), loads and stores, on a clock that
// advances one cycle per access and waits for fetch misses and loads the
// way the in-order core does.
func (d *decomposer) access(rec *trace.Recorder, cell string) error {
	accs := d.accs[:0]
	lastLine := ^uint64(0)
	for i := 0; i < rec.Len(); i++ {
		e := rec.At(i)
		if line := e.PC &^ (cache.LineBytes - 1); line != lastLine {
			accs = append(accs, memAccess{addr: e.PC, kind: accFetch})
			lastLine = line
		}
		switch e.Op.Class() {
		case isa.ClassLoad:
			accs = append(accs, memAccess{addr: e.Addr, size: e.Size, kind: accLoad})
		case isa.ClassStore:
			accs = append(accs, memAccess{addr: e.Addr, size: e.Size, kind: accStore})
		}
		if e.Op.IsBranch() {
			lastLine = ^uint64(0)
		}
	}
	d.accs = accs
	h, err := cache.NewHierarchy(cache.DefaultHierConfig(), nil)
	if err != nil {
		return err
	}
	d.spans.timed("cache.access", cell, func() {
		var now uint64
		for _, a := range accs {
			now++
			switch a.kind {
			case accFetch:
				if done := h.FetchInstr(now, a.addr); done > now+2 {
					now = done
				}
			case accLoad:
				now = h.L1D.Load(now, a.addr, a.size).Done
			case accStore:
				h.L1D.Store(now, a.addr, a.size)
			}
		}
	})
	d.accesses += uint64(len(accs))
	d.l1dAccesses += h.L1D.Stats.Accesses
	d.l1dMisses += h.L1D.Stats.Misses
	return nil
}

// storeTrace writes the capture to the trace tier and reads it back.
func (d *decomposer) storeTrace(rec *trace.Recorder, checksum uint64, cell string) error {
	id := persist.SumID("trace:" + cell)
	before := d.store.Counters().Bytes
	var err error
	d.spans.timed("persist.trace_put", cell, func() { err = d.store.StoreTrace(id, rec, checksum) })
	if err != nil {
		return fmt.Errorf("%s: %w", cell, err)
	}
	d.diskBytes += d.store.Counters().Bytes - before
	d.putBytes += rec.Bytes()
	var got *trace.Recorder
	var sum uint64
	d.spans.timed("persist.trace_get", cell, func() { got, sum, err = d.store.LoadTrace(id) })
	if err != nil {
		return fmt.Errorf("%s: %w", cell, err)
	}
	defer got.Release()
	if got.Len() != rec.Len() || sum != checksum {
		return incorrect("%s: trace store returned %d entries (checksum %x) for %d (%x)", cell, got.Len(), sum, rec.Len(), checksum)
	}
	return nil
}

// storeResult writes one cell's result to the result tier and reads it back.
func (d *decomposer) storeResult(cell string, st *cpu.Stats, checksum uint64) error {
	id := persist.SumID("result:" + cell)
	var err error
	d.spans.timed("persist.result_put", cell, func() {
		err = d.store.StoreResult(id, &persist.CellResult{Stats: *st, Checksum: checksum})
	})
	if err != nil {
		return fmt.Errorf("%s: %w", cell, err)
	}
	var got *persist.CellResult
	d.spans.timed("persist.result_get", cell, func() { got, err = d.store.LoadResult(id) })
	if err != nil {
		return fmt.Errorf("%s: %w", cell, err)
	}
	if got.Stats.Cycles != st.Cycles || got.Checksum != checksum {
		return incorrect("%s: result store returned %d cycles for %d", cell, got.Stats.Cycles, st.Cycles)
	}
	return nil
}

// layers are the span-name prefixes of the simulator's layers; shares are of
// their summed self time.
var layers = []string{"world", "sim", "trace", "cpu", "bpred", "cache", "persist"}

// layerMetrics turns the work counts and span times of a workload's grids
// into its layer metrics.
func layerMetrics(spans *spanLog, parts []*gridPart) map[string]Metric {
	var c counts
	var rs []spanRange
	for _, p := range parts {
		c.add(p.counts)
		rs = append(rs, p.spans)
	}
	sec := func(name string) float64 { return spans.total(rs, name).Seconds() }
	rate := func(work uint64, name string) float64 { return float64(work) / 1e6 / sec(name) }
	self := spans.selfTimes(rs)
	var layerTotal time.Duration
	for _, l := range layers {
		layerTotal += self[l]
	}
	share := func(d time.Duration) float64 { return d.Seconds() / layerTotal.Seconds() }
	us := func(name string) []float64 {
		var out []float64
		for _, dur := range spans.durations(rs, name) {
			out = append(out, float64(dur)/float64(time.Microsecond))
		}
		return out
	}
	m := map[string]Metric{
		"world.build_us":               value(median(us("world.build")), "us"),
		"sim.minstr_per_s":             value(rate(c.entries, "sim.run"), "Minstr/s"),
		"sim.share":                    value(share(self["sim"]), "ratio"),
		"trace.capture_mentries_per_s": value(rate(c.entries, "trace.capture"), "Mentries/s"),
		"trace.replay_mentries_per_s":  value(rate(c.entries, "trace.replay"), "Mentries/s"),
		"trace.mbytes":                 value(float64(c.traceBytes)/1e6, "MB"),
		"cpu.ooo_minstr_per_s":         value(rate(c.oooInstrs, "cpu.ooo"), "Minstr/s"),
		"cpu.inorder_minstr_per_s":     value(rate(c.ioInstrs, "cpu.inorder"), "Minstr/s"),
		"cpu.ooo_share":                value(share(spans.total(rs, "cpu.ooo")), "ratio"),
		"cpu.inorder_share":            value(share(spans.total(rs, "cpu.inorder")), "ratio"),
		"cpu.allocs_per_cell":          value(float64(c.allocs)/float64(c.replays), "count"),
		"cpu.cycles":                   value(float64(c.cycles), "count"),
		"bpred.mresolves_per_s":        value(rate(c.resolves, "bpred.resolve"), "M/s"),
		"bpred.mispredict_ratio":       value(float64(c.mispredicts)/float64(c.resolves), "ratio"),
		"cache.maccesses_per_s":        value(rate(c.accesses, "cache.access"), "M/s"),
		"cache.l1d_miss_ratio":         value(float64(c.l1dMisses)/float64(c.l1dAccesses), "ratio"),
		"persist.trace_put_mb_per_s":   value(rate(c.putBytes, "persist.trace_put"), "MB/s"),
		"persist.trace_get_mb_per_s":   value(rate(c.putBytes, "persist.trace_get"), "MB/s"),
		"persist.trace_disk_ratio":     value(float64(c.diskBytes)/float64(c.putBytes), "ratio"),
		"persist.share":                value(share(self["persist"]), "ratio"),
	}
	for _, op := range []string{"result_put", "result_get"} {
		xs := us("persist." + op)
		m["persist."+op+"_us_p50"] = value(median(xs), "us")
		if p90, ok := percentile(xs, 0.9); ok {
			m["persist."+op+"_us_p90"] = value(p90, "us")
		}
	}
	for _, l := range layers {
		m[l+".self_s"] = value(self[l].Seconds(), "s")
	}
	return m
}
