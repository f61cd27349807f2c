package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
)

// Contract is BENCHMARK.json: the workloads and the metrics every run
// reports, with the bound by which each end-to-end metric may worsen.
type Contract struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []NameWhy   `json:"workloads"`
	EndToEnd   []MetricDef `json:"end_to_end"`
	PerLayer   []MetricDef `json:"per_layer"`
}

type NameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricDef names a metric, its unit and direction, and (for end-to-end
// metrics) the share of the base median by which it may worsen.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Workloads restricts a metric of the suite's extra set to the
	// workloads where it is defined (empty: all).
	Workloads []string `json:"workloads,omitempty"`
}

// Suite is bench/suite.json: what BENCHMARK.json's fixed keys cannot hold.
// The seed table, each workload's restbench arguments, the end-to-end
// metrics reported but not gated, what each layer metric should move, and
// the recorded stdout digests and baselines.
type Suite struct {
	Seeds     []SeedInputs   `json:"seeds"`
	Workloads []WorkloadSpec `json:"workloads"`
	Extra     []MetricDef    `json:"extra_end_to_end"`
	// Floors holds, by end-to-end metric, the smallest move of the median
	// (in the metric's unit) the comparator counts as a change: below it a
	// metric is unchanged whatever its bound says.
	Floors map[string]float64 `json:"floors"`
	Layers []LayerSpec        `json:"layers"`
	// Recorded holds, per input seed and workload, the stdout digest every
	// invocation must print and the baseline measured when it was recorded.
	Recorded map[string]map[string]*Record `json:"recorded"`
}

// SeedInputs is one row of the seed table: the restbench inputs a seed
// selects. The program only ever receives flags.
type SeedInputs struct {
	Seed     int64  `json:"seed"`
	Scale    int64  `json:"scale"`
	Variants bool   `json:"variants"`
	Use      string `json:"use"`
}

// WorkloadSpec is how one workload drives restbench.
type WorkloadSpec struct {
	Name string   `json:"name"`
	Args []string `json:"args"`
	// Store is "" (no persistent cache), "cold" (a fresh empty -cache-dir
	// per invocation) or "warm" (one -cache-dir filled in set-up).
	Store   string `json:"store,omitempty"`
	MinReps int    `json:"min_reps"`
}

// LayerSpec documents one per-layer metric: the public entry point the
// decomposition times and the end-to-end metrics it should move.
type LayerSpec struct {
	Metric string `json:"metric"`
	Entry  string `json:"entry"`
	// Simulated marks an exact count of the simulated machine: it must not
	// change unless the simulation itself changes.
	Simulated bool   `json:"simulated,omitempty"`
	Moves     []Move `json:"moves"`
}

type Move struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

// Record is what a recording run measured for one workload and input seed.
type Record struct {
	StdoutSHA256 string `json:"stdout_sha256"`
	// Instrs is the exact simulated instruction count of one invocation
	// (zero for a workload that simulates nothing).
	Instrs   uint64             `json:"instrs"`
	Baseline map[string]Summary `json:"baseline"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// inputs returns the seed's row of the table. The first row is the default
// input set: seeds without a row of their own use it.
func (s *Suite) inputs(seed int64) SeedInputs {
	for _, in := range s.Seeds {
		if in.Seed == seed {
			return in
		}
	}
	return s.Seeds[0]
}

// record returns what was recorded for a workload under an input seed, or
// nil.
func (s *Suite) record(in SeedInputs, workload string) *Record {
	return s.Recorded[strconv.FormatInt(in.Seed, 10)][workload]
}

func (s *Suite) workload(name string) (WorkloadSpec, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return WorkloadSpec{}, false
}

func (s *Suite) layer(metric string) (LayerSpec, bool) {
	for _, l := range s.Layers {
		if l.Metric == metric {
			return l, true
		}
	}
	return LayerSpec{}, false
}

// check rejects a suite that disagrees with the contract: the workloads must
// be the same, in the same order, and every per-layer metric documented.
func (s *Suite) check(c *Contract) error {
	if len(s.Seeds) == 0 {
		return fmt.Errorf("the suite has no seed table")
	}
	if len(s.Workloads) != len(c.Workloads) {
		return fmt.Errorf("suite has %d workloads, BENCHMARK.json %d", len(s.Workloads), len(c.Workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != c.Workloads[i].Name {
			return fmt.Errorf("workload %d is %q in the suite, %q in BENCHMARK.json", i, w.Name, c.Workloads[i].Name)
		}
	}
	for _, m := range c.PerLayer {
		if _, ok := s.layer(m.Name); !ok {
			return fmt.Errorf("per-layer metric %s has no entry in the suite's layers", m.Name)
		}
	}
	for name := range s.Floors {
		named := func(d MetricDef) bool { return d.Name == name }
		if !slices.ContainsFunc(c.EndToEnd, named) && !slices.ContainsFunc(s.Extra, named) {
			return fmt.Errorf("the suite has a floor for %s, which is no end-to-end metric", name)
		}
	}
	return nil
}
