package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Metric is one reported metric: a summary of its samples, or a single
// value (N = 1). Better and Bound come from BENCHMARK.json (or the suite's
// extra end-to-end metrics) and Floor from the suite, so a results file
// carries what the comparator needs.
type Metric struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
	// Floor is the smallest move of the median, in Unit, that counts as a
	// change at all.
	Floor     float64 `json:"floor,omitempty"`
	Simulated bool    `json:"simulated,omitempty"`
	Summary
}

func value(v float64, unit string) Metric {
	return Metric{Unit: unit, Summary: Summary{Median: v, Q1: v, Q3: v, N: 1}}
}

func sampled(xs []float64, unit string) Metric {
	return Metric{Unit: unit, Summary: summarize(xs)}
}

// WorkloadResult is one workload's measurements.
type WorkloadResult struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Digest    string `json:"stdout_sha256"`
	// Instrs is the exact simulated instruction count of one invocation,
	// from the traced run (zero when it was not traced).
	Instrs uint64 `json:"instrs,omitempty"`
	// EndToEnd holds the untraced invocations' metrics, Layers the traced
	// run's.
	EndToEnd map[string]Metric `json:"end_to_end,omitempty"`
	Layers   map[string]Metric `json:"layers,omitempty"`
}

// Results is what restperf -out writes and restperf -compare reads.
type Results struct {
	Seed   int64            `json:"seed"`
	Inputs SeedInputs       `json:"inputs"`
	Jobs   int              `json:"jobs"`
	CPUs   int              `json:"cpus"`
	Runs   []WorkloadResult `json:"workloads"`
}

// printMetrics writes one line per metric, sorted by name: the median (or
// value) with its unit, and the quartiles and sample count when sampled.
func printMetrics(w io.Writer, workload string, ms map[string]Metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		if m.N > 1 {
			fmt.Fprintf(w, "%-16s %-30s %14.6g %-10s (q1 %.6g, q3 %.6g, n %d)\n", workload, n, m.Median, m.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Fprintf(w, "%-16s %-30s %14.6g %s\n", workload, n, m.Median, m.Unit)
		}
	}
}

// resultLine is the last line a run prints: whether every output was
// correct, the invocations attempted and failed, and each metric
// BENCHMARK.json lists for the mode, by value and unit.
func resultLine(correct bool, attempted, failed int, ms map[string]Metric, defs []MetricDef) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, attempted, failed, map[string]val{}}
	for _, d := range defs {
		m, ok := ms[d.Name]
		if !ok {
			if correct {
				return nil, fmt.Errorf("metric %s was not measured", d.Name)
			}
			continue
		}
		if m.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s is measured in %s, BENCHMARK.json says %s", d.Name, m.Unit, d.Unit)
		}
		out.Metrics[d.Name] = val{m.Median, m.Unit}
	}
	return json.Marshal(out)
}
