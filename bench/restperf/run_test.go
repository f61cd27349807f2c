package main

import (
	"errors"
	"testing"

	"rest/internal/harness"
	"rest/internal/workload"
)

// A grid printed by two workloads of one run is decomposed once; the second
// workload's matrix must equal the one the decomposition reproduced.
func TestDecompositionIsReusedOnlyForTheSameMatrix(t *testing.T) {
	m := csvMatrix{Cycles: map[string]map[string]uint64{}}
	for _, c := range harness.Fig8SensitivityConfigs() {
		m.Configs = append(m.Configs, c.Name)
	}
	for _, wl := range workload.All() {
		m.Workloads = append(m.Workloads, wl.Name)
		m.Cycles[wl.Name] = map[string]uint64{}
		for _, c := range m.Configs {
			m.Cycles[wl.Name][c] = 1000
		}
	}
	done := &gridPart{matrix: m}
	r := &runner{in: SeedInputs{Seed: 1, Scale: 1}, grids: map[string]*gridPart{"fig8sens": done}}
	if p, err := r.decomposition(m); err != nil || p != done {
		t.Fatalf("the same matrix again: %p, %v; want the earlier decomposition", p, err)
	}
	other := csvMatrix{Configs: m.Configs, Workloads: m.Workloads, Cycles: map[string]map[string]uint64{}}
	for wl, row := range m.Cycles {
		other.Cycles[wl] = map[string]uint64{}
		for c, v := range row {
			other.Cycles[wl][c] = v
		}
	}
	other.Cycles[m.Workloads[0]][m.Configs[0]]++
	var bad *errIncorrect
	if _, err := r.decomposition(other); !errors.As(err, &bad) {
		t.Errorf("a matrix that differs in one cell: %v, want an incorrect output", err)
	}
}
