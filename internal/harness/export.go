package harness

import "rest/internal/obs"

// ObserveCells returns the OnCell callback for one named sweep. It stamps
// the sweep name on each cell's span and feeds every attached surface from
// it: the progress meter, the Catapult trace slice (category = sweep, args
// workload/config/verdict/instrs/cycles, which bench/restperf reads) and
// sink, the live telemetry (restnet's -serve exporter), which also gets the
// cell's registry. Each surface is optional; with none attached it returns
// nil, so an unobserved sweep pays nothing. The returned func is safe for
// concurrent use when sink is.
func ObserveCells(sweep string, meter *obs.Progress, tr *obs.Trace, sink func(obs.CellSpan, *obs.Registry)) func(obs.CellSpan, *obs.Registry) {
	if meter == nil && tr == nil && sink == nil {
		return nil
	}
	return func(s obs.CellSpan, reg *obs.Registry) {
		s.Sweep = sweep
		meter.Observe(s.Verdict == "ok")
		if tr != nil {
			tr.Slice(s.Worker, s.Workload+"/"+s.Config, sweep, s.Start, s.End, map[string]any{
				"workload": s.Workload, "config": s.Config,
				"verdict": s.Verdict, "instrs": s.Instrs, "cycles": s.Cycles,
			})
		}
		if sink != nil {
			sink(s, reg)
		}
	}
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
