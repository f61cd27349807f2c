package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// Verdicts on one end-to-end metric of one workload.
const (
	improved   = "improved"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judge compares a metric's new summary with its base. The change is the
// relative move of the median, signed so that positive is worse.
//
//   - A move smaller than the metric's floor is unchanged.
//   - A move past the bound in the worse direction is worse.
//   - When either side's spread (q3-q1 over the median) is wider than the
//     bound, the medians cannot be told apart: the metric is improved if the
//     new side won (see wins) and unresolved otherwise.
//   - A move past the bound in the better direction is improved; anything
//     else is unchanged.
func judge(base, cur Metric, won bool) (string, float64) {
	if base.Median == 0 {
		return unresolved, 0
	}
	change := (cur.Median - base.Median) / base.Median
	if base.Better == "higher" {
		change = -change
	}
	switch {
	case math.Abs(cur.Median-base.Median) < base.Floor:
		return unchanged, change
	case change > base.Bound:
		return worse, change
	case spread(base) > base.Bound || spread(cur) > base.Bound:
		if won {
			return improved, change
		}
		return unresolved, change
	case change < -base.Bound:
		return improved, change
	}
	return unchanged, change
}

func spread(m Metric) float64 { return (m.Q3 - m.Q1) / m.Median }

// wins reports whether the new side won. With one pair of runs, every new
// invocation must beat every base invocation. With several pairs, the new
// run must beat its base run in at least nine pairs of ten.
func wins(base, cur []Metric) bool {
	if len(base) == 1 {
		b, c := base[0], cur[0]
		if len(b.Samples) == 0 || len(c.Samples) == 0 {
			return false
		}
		if b.Better == "higher" {
			return slices.Min(c.Samples) > slices.Max(b.Samples)
		}
		return slices.Max(c.Samples) < slices.Min(b.Samples)
	}
	won := 0
	for i := range base {
		b, c := base[i].Median, cur[i].Median
		if base[i].Better == "higher" && c > b || base[i].Better != "higher" && c < b {
			won++
		}
	}
	return won*10 >= 9*len(base)
}

// acrossRuns is one side of a comparison: a single run's metric as it is,
// or, over several runs, the summary of the runs' medians.
func acrossRuns(ms []Metric) Metric {
	if len(ms) == 1 {
		return ms[0]
	}
	var xs []float64
	for _, m := range ms {
		xs = append(xs, m.Median)
	}
	out := ms[0]
	out.Summary = summarize(xs)
	return out
}

// compareFiles reads results files that pair up in order, BASE NEW [BASE
// NEW ...], and compares them.
func compareFiles(w io.Writer, paths []string) int {
	if len(paths) == 0 || len(paths)%2 != 0 {
		fmt.Fprintln(os.Stderr, "restperf: -compare takes results files in pairs: BASE.json NEW.json [BASE2.json NEW2.json ...]")
		return 2
	}
	var pairs [][2]*Results
	for i := 0; i < len(paths); i += 2 {
		var p [2]*Results
		for j := range p {
			p[j] = new(Results)
			if err := readJSON(paths[i+j], p[j]); err != nil {
				fmt.Fprintln(os.Stderr, "restperf:", err)
				return 2
			}
		}
		pairs = append(pairs, p)
	}
	return compare(w, pairs)
}

// compare prints one row per workload with a verdict for each end-to-end
// metric and the failure ratios, then each layer metric base -> new, flagging
// any change in a simulated count. Each pair is a base run and a new run,
// made one after the other; with several pairs every side is the runs'
// medians. It returns 1 on any worse verdict, any rise in a failure ratio,
// or a workload missing from the new results.
func compare(w io.Writer, pairs [][2]*Results) int {
	for _, p := range pairs {
		if p[0].Seed != p[1].Seed || p[0].Inputs != p[1].Inputs {
			fmt.Fprintf(w, "warning: base ran seed %d (%+v), new seed %d (%+v)\n", p[0].Seed, p[0].Inputs, p[1].Seed, p[1].Inputs)
		}
	}
	if len(pairs) > 1 {
		fmt.Fprintf(w, "%d pairs of runs: each side is the runs' medians\n", len(pairs))
	}
	code := 0
	for _, first := range pairs[0][0].Runs {
		// The workload's result in every run, base and new side.
		var bs, cs []WorkloadResult
		for _, p := range pairs {
			b, okB := find(p[0], first.Name)
			c, okC := find(p[1], first.Name)
			if okB && okC {
				bs, cs = append(bs, b), append(cs, c)
			}
		}
		if len(bs) != len(pairs) {
			fmt.Fprintf(w, "%-16s missing from a results file\n", first.Name)
			code = 1
			continue
		}
		var cells []string
		for _, name := range sortedKeys(first.EndToEnd) {
			bm, cm, ok := collect(bs, cs, func(r WorkloadResult) map[string]Metric { return r.EndToEnd }, name)
			if !ok {
				cells = append(cells, name+" missing")
				code = 1
				continue
			}
			v, change := judge(acrossRuns(bm), acrossRuns(cm), wins(bm, cm))
			if v == worse {
				code = 1
			}
			cells = append(cells, fmt.Sprintf("%s %s %+.1f%%", name, v, 100*change))
		}
		bf, cf := failRatio(bs), failRatio(cs)
		fail := "fail_ratio unchanged"
		if cf > bf {
			fail = "fail_ratio rose"
			code = 1
		}
		cells = append(cells, fmt.Sprintf("%s %.3g -> %.3g", fail, bf, cf))
		fmt.Fprintf(w, "%-16s %s\n", first.Name, strings.Join(cells, " | "))
		for i := range bs {
			if bs[i].Digest != cs[i].Digest {
				fmt.Fprintf(w, "%-16s   stdout changed: %s -> %s\n", first.Name, bs[i].Digest, cs[i].Digest)
				break
			}
		}
		for _, name := range sortedKeys(first.Layers) {
			bms, cms, ok := collect(bs, cs, func(r WorkloadResult) map[string]Metric { return r.Layers }, name)
			if !ok {
				fmt.Fprintf(w, "%-16s   %-30s missing\n", first.Name, name)
				continue
			}
			bm, cm := acrossRuns(bms), acrossRuns(cms)
			switch {
			case bm.Simulated && !sameCount(bms, cms):
				fmt.Fprintf(w, "%-16s   %-30s %.10g -> %.10g CHANGED: the simulated machine counts differently\n", first.Name, name, bm.Median, cm.Median)
			case bm.Simulated:
				fmt.Fprintf(w, "%-16s   %-30s %.10g (same count)\n", first.Name, name, bm.Median)
			case bm.Median != 0:
				fmt.Fprintf(w, "%-16s   %-30s %.6g -> %.6g %s (%+.1f%%)\n", first.Name, name, bm.Median, cm.Median, bm.Unit, 100*(cm.Median/bm.Median-1))
			default:
				fmt.Fprintf(w, "%-16s   %-30s %.6g -> %.6g %s\n", first.Name, name, bm.Median, cm.Median, bm.Unit)
			}
		}
	}
	return code
}

func find(r *Results, name string) (WorkloadResult, bool) {
	for _, run := range r.Runs {
		if run.Name == name {
			return run, true
		}
	}
	return WorkloadResult{}, false
}

// collect gathers one metric from every run of both sides; ok is false if a
// run lacks it.
func collect(bs, cs []WorkloadResult, of func(WorkloadResult) map[string]Metric, name string) (base, cur []Metric, ok bool) {
	for i := range bs {
		b, okB := of(bs[i])[name]
		c, okC := of(cs[i])[name]
		if !okB || !okC {
			return nil, nil, false
		}
		base, cur = append(base, b), append(cur, c)
	}
	return base, cur, true
}

// sameCount reports whether every run, on both sides, read the same count.
func sameCount(base, cur []Metric) bool {
	for _, m := range append(append([]Metric(nil), base...), cur...) {
		if m.Median != base[0].Median {
			return false
		}
	}
	return true
}

func failRatio(runs []WorkloadResult) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func sortedKeys(m map[string]Metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
