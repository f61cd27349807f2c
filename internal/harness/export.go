package harness

import "rest/internal/obs"

// ObserveCells returns the CellEvent callback for one named sweep. It
// flattens each event into its span once and feeds every attached surface
// from it: the progress meter, the Catapult trace slice (category = sweep,
// args workload/config/verdict/instrs/cycles, which bench/restperf reads)
// and sink, the live telemetry (restnet's -serve exporter), which also gets
// the cell's registry. Each surface is optional; with none attached it
// returns nil, so an unobserved sweep pays nothing. The returned func is
// safe for concurrent use when sink is.
func ObserveCells(sweep string, meter *obs.Progress, tr *obs.Trace, sink func(obs.CellSpan, *obs.Registry)) func(CellEvent) {
	if meter == nil && tr == nil && sink == nil {
		return nil
	}
	return func(ev CellEvent) {
		s := CellEventSpan(sweep, ev)
		meter.Observe(s.Verdict == "ok")
		if tr != nil {
			tr.Slice(ev.Worker, ev.Workload+"/"+ev.Config, sweep, ev.Start, ev.End, map[string]any{
				"workload": ev.Workload, "config": ev.Config,
				"verdict": s.Verdict, "instrs": ev.Instrs, "cycles": ev.Cycles,
			})
		}
		if sink != nil {
			sink(s, ev.Obs)
		}
	}
}

// CellEventSpan flattens one CellEvent into the span every surface reads.
func CellEventSpan(sweep string, ev CellEvent) obs.CellSpan {
	s := obs.CellSpan{
		Sweep:    sweep,
		Worker:   ev.Worker,
		Index:    ev.Index,
		Total:    ev.Total,
		Workload: ev.Workload,
		Config:   ev.Config,
		Start:    ev.Start,
		End:      ev.End,
		Verdict:  "ok",
		Source:   ev.Source,
		Instrs:   ev.Instrs,
		Cycles:   ev.Cycles,
	}
	switch {
	case ev.Skipped:
		s.Verdict, s.Reason = "skipped", "sweep cancelled"
	case ev.Err != nil:
		s.Verdict, s.Reason = "hole", holeReason(ev.Err)
	}
	return s
}

// RecordCounters records the cache's and its attached store's current
// counters into r, under the harness.trace_cache.* and harness.diskcache.*
// names: what a live telemetry snapshot shows of the caches.
func (tc *TraceCache) RecordCounters(r *obs.Registry) {
	tc.recordObs(r)
	tc.recordDiskObs(r)
}

// ProgressStats summarizes cache activity across the in-memory tier and the
// attached store for the stderr meter's "cache N% hit" field.
func (tc *TraceCache) ProgressStats() obs.ProgressStats {
	hits, misses, _ := tc.Counters()
	dc := tc.DiskCounters()
	return obs.ProgressStats{
		CacheHits:    hits + dc.ResultHits,
		CacheLookups: hits + misses + dc.ResultHits + dc.ResultMisses,
	}
}
