package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"rest/internal/obs"
)

// TestSmokeScale1 builds restbench and runs every workload once at scale 1:
// the three simulating workloads and the warm store end to end, and
// fig8sens-replay traced as well, decomposition included. Every metric
// BENCHMARK.json lists must come out, in its unit.
func TestSmokeScale1(t *testing.T) {
	if testing.Short() {
		t.Skip("builds restbench and runs every workload")
	}
	var c Contract
	var s Suite
	if err := readJSON(contractFile, &c); err != nil {
		t.Fatal(err)
	}
	if err := readJSON(suiteFile, &s); err != nil {
		t.Fatal(err)
	}
	in := SeedInputs{Seed: 1, Scale: 1}
	s.Recorded = nil // scale 1 has no recorded digests: invocations must agree with each other
	work := t.TempDir()
	bin := filepath.Join(work, "restbench")
	ctx := context.Background()
	if err := buildRestbench(ctx, "../..", bin); err != nil {
		t.Fatal(err)
	}
	r := newRunner(ctx, &c, &s, in, bin, work, t.Logf)
	var runs []WorkloadResult
	for _, w := range s.Workloads {
		w.MinReps = 1
		mode := modeEndToEnd
		if w.Name == "fig8sens-replay" {
			mode = modeBoth
		}
		res, err := r.workload(w, mode)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Attempted != 1 && mode == modeEndToEnd || res.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed; want one clean invocation", w.Name, res.Attempted, res.Failed)
		}
		if _, err := resultLine(true, res.Attempted, res.Failed, res.EndToEnd, c.EndToEnd); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if mode == modeBoth {
			if _, err := resultLine(true, res.Attempted, res.Failed, res.Layers, c.PerLayer); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
			if got := res.Layers["harness.trace_replay_ratio"].Median; got != 192.0/216 {
				t.Errorf("fig8sens-replay replays %v of its cells, want 192/216", got)
			}
			if res.Instrs == 0 || res.EndToEnd["sim_minstr_per_s"].Median <= 0 {
				t.Errorf("fig8sens-replay: no simulated instruction rate (%d instrs)", res.Instrs)
			}
		}
		runs = append(runs, *res)
	}
	if err := crossCheck(runs); err != nil {
		t.Error(err)
	}
	path := filepath.Join(work, "spans.json")
	if err := r.spans.writeCatapult(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateCatapult(raw); err != nil {
		t.Error(err)
	}
}
