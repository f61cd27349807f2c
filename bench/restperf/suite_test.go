package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const (
	contractFile = "../../BENCHMARK.json"
	suiteFile    = "../suite.json"
)

func loadSuite(t *testing.T) (*Contract, *Suite) {
	t.Helper()
	var c Contract
	var s Suite
	if err := readJSON(contractFile, &c); err != nil {
		t.Fatal(err)
	}
	if err := readJSON(suiteFile, &s); err != nil {
		t.Fatal(err)
	}
	if err := s.check(&c); err != nil {
		t.Fatal(err)
	}
	return &c, &s
}

// keys decodes raw as a JSON object and returns its sorted keys.
func keys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// BENCHMARK.json is read by tools outside this repository; its shape and
// limits are fixed.
func TestContractShape(t *testing.T) {
	raw, err := os.ReadFile(contractFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if got := keys(t, raw); strings.Join(got, ",") != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Errorf("top-level keys = %v", got)
	}
	c, _ := loadSuite(t)
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", c.RunSeconds)
	}
	pathRe := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
	if len(c.Paths) < 1 || len(c.Paths) > 16 {
		t.Errorf("%d paths, want 1..16", len(c.Paths))
	}
	for _, p := range c.Paths {
		if !pathRe.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative directory", p)
		}
	}
	if len(c.Command) == 0 || len(c.Command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(c.Command))
	}
	for _, a := range c.Command {
		if len(a) > 200 || strings.HasPrefix(a, "/") || strings.Contains(a, "..") {
			t.Errorf("command string %q", a)
		}
	}

	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRe.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var entries struct {
		Workloads []json.RawMessage `json:"workloads"`
		EndToEnd  []json.RawMessage `json:"end_to_end"`
		PerLayer  []json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for i, w := range c.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
		if got := keys(t, entries.Workloads[i]); strings.Join(got, ",") != "name,why" {
			t.Errorf("workload %s keys = %v", w.Name, got)
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	var maxBound float64
	for i, m := range c.EndToEnd {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.10 {
			t.Errorf("end-to-end metric %+v", m)
		}
		if got := keys(t, entries.EndToEnd[i]); strings.Join(got, ",") != "better,bound,name,unit" {
			t.Errorf("end-to-end metric %s keys = %v", m.Name, got)
		}
		maxBound = max(maxBound, m.Bound)
	}
	i := slices.IndexFunc(c.EndToEnd, func(m MetricDef) bool { return m.Name == "setup_s" })
	if i < 0 || c.EndToEnd[i].Unit != "s" || c.EndToEnd[i].Better != "lower" || c.EndToEnd[i].Bound != maxBound {
		t.Error("setup_s must be an end-to-end metric in s, lower is better, with the largest bound")
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for i, m := range c.PerLayer {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
		if got := keys(t, entries.PerLayer[i]); strings.Join(got, ",") != "better,name,unit" {
			t.Errorf("per-layer metric %s keys = %v", m.Name, got)
		}
	}
}

func TestSeedTable(t *testing.T) {
	_, s := loadSuite(t)
	if in := s.inputs(1); in.Scale != 3 || in.Variants {
		t.Errorf("seed 1 selects %+v, want scale 3 without variants", in)
	}
	if in := s.inputs(2); in.Scale != 4 || !in.Variants {
		t.Errorf("seed 2 selects %+v, want scale 4 with variants", in)
	}
	if in := s.inputs(7); in != s.inputs(1) {
		t.Errorf("seed 7 selects %+v, want seed 1's inputs", in)
	}
	r := &runner{in: s.inputs(2), jobs: 2}
	fig7, _ := s.workload("fig7-stream")
	if got := strings.Join(r.args(fig7), " "); got != "-fig7 -variants -scale 4 -j 2 -csv" {
		t.Errorf("seed 2 fig7-stream args = %q", got)
	}
	sens, _ := s.workload("fig8sens-replay")
	if got := strings.Join(r.args(sens), " "); got != "-fig8sens -scale 4 -j 2 -csv" {
		t.Errorf("seed 2 fig8sens-replay args = %q", got)
	}
}

// Both seeds carry a digest for every workload, and the two fig7 workloads,
// which differ only in the persistent store, must print the same reports.
func TestRecordedDigests(t *testing.T) {
	_, s := loadSuite(t)
	for _, seed := range []int64{1, 2} {
		in := s.inputs(seed)
		for _, w := range s.Workloads {
			rec := s.record(in, w.Name)
			if rec == nil || len(rec.StdoutSHA256) != 64 {
				t.Errorf("seed %d %s: no stdout digest recorded", seed, w.Name)
				continue
			}
			if _, ok := rec.Baseline["run_s"]; !ok {
				t.Errorf("seed %d %s: no baseline recorded", seed, w.Name)
			}
		}
		a, b := s.record(in, "fig7-stream"), s.record(in, "fig7-store-cold")
		if a != nil && b != nil && a.StdoutSHA256 != b.StdoutSHA256 {
			t.Errorf("seed %d: fig7-stream and fig7-store-cold digests differ", seed)
		}
	}
}
