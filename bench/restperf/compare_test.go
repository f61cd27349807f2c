package main

import (
	"bytes"
	"strings"
	"testing"
)

// synthetic builds a results file with one workload whose run_s samples are
// the given values, scaled by factor.
func synthetic(factor float64, cycles float64, failed int) *Results {
	base := []float64{2.61, 2.64, 2.66, 2.70, 2.72}
	xs := make([]float64, len(base))
	for i, v := range base {
		xs[i] = v * factor
	}
	run := sampled(xs, "s")
	run.Better, run.Bound = "lower", 0.1
	rate := sampled([]float64{17.1, 17.3, 17.4}, "Minstr/s")
	rate.Better, rate.Bound = "higher", 0.1
	cyc := value(cycles, "count")
	cyc.Simulated = true
	return &Results{Seed: 1, Inputs: SeedInputs{Seed: 1, Scale: 3}, Runs: []WorkloadResult{{
		Name: "fig7-stream", Attempted: 5, Failed: failed, Digest: "d",
		EndToEnd: map[string]Metric{"run_s": run, "sim_minstr_per_s": rate},
		Layers:   map[string]Metric{"cpu.cycles": cyc, "cpu.ooo_minstr_per_s": value(9.6, "Minstr/s")},
	}}}
}

func pair(base, cur *Results) [][2]*Results { return [][2]*Results{{base, cur}} }

func TestCompareIdenticalPairIsUnchanged(t *testing.T) {
	var out bytes.Buffer
	if code := compare(&out, pair(synthetic(1, 100, 0), synthetic(1, 100, 0))); code != 0 {
		t.Errorf("identical results exit %d, want 0:\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"run_s unchanged +0.0%", "sim_minstr_per_s unchanged", "fail_ratio unchanged", "same count"} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "worse") || strings.Contains(s, "CHANGED") {
		t.Errorf("identical results flagged:\n%s", s)
	}
}

func TestCompareFlagsA20PercentSlowdown(t *testing.T) {
	var out bytes.Buffer
	if code := compare(&out, pair(synthetic(1, 100, 0), synthetic(1.2, 100, 0))); code != 1 {
		t.Errorf("a 20%% slowdown exits %d, want 1", code)
	}
	if !strings.Contains(out.String(), "run_s worse +20.0%") {
		t.Errorf("the slowdown is not reported worse:\n%s", out.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	var out bytes.Buffer
	if code := compare(&out, pair(synthetic(1, 100, 0), synthetic(0.8, 100, 0))); code != 0 {
		t.Errorf("a 20%% speed-up exits %d, want 0", code)
	}
	if !strings.Contains(out.String(), "run_s improved -20.0%") {
		t.Errorf("the speed-up is not reported improved:\n%s", out.String())
	}

	out.Reset()
	if code := compare(&out, pair(synthetic(1, 100, 0), synthetic(1, 101, 1))); code != 1 {
		t.Errorf("a rise in failures exits %d, want 1", code)
	}
	s := out.String()
	if !strings.Contains(s, "fail_ratio rose 0 -> 0.2") {
		t.Errorf("the failure rise is not reported:\n%s", s)
	}
	if !strings.Contains(s, "cpu.cycles") || !strings.Contains(s, "CHANGED") {
		t.Errorf("the changed simulated count is not flagged:\n%s", s)
	}
}

// judgeOne judges a single pair of runs, as compare does.
func judgeOne(base, cur Metric) (string, float64) {
	return judge(base, cur, wins([]Metric{base}, []Metric{cur}))
}

func TestJudgeUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	wide := sampled([]float64{2.0, 2.2, 2.6, 3.0, 3.1}, "s")
	wide.Better, wide.Bound = "lower", 0.1
	slightly := sampled([]float64{2.1, 2.3, 2.7, 3.0, 3.2}, "s")
	if v, _ := judgeOne(wide, slightly); v != unresolved {
		t.Errorf("a move inside a spread wider than the bound is %s, want unresolved", v)
	}
	// Every new run beats every base run: improved despite the spread.
	faster := sampled([]float64{1.0, 1.2, 1.5, 1.8, 1.9}, "s")
	if v, _ := judgeOne(wide, faster); v != improved {
		t.Errorf("a sweep where every run wins is %s, want improved", v)
	}
	// A higher-is-better metric that dropped 30% is worse.
	rate := sampled([]float64{10, 10.1, 10.2}, "M/s")
	rate.Better, rate.Bound = "higher", 0.1
	if v, c := judgeOne(rate, sampled([]float64{7, 7.07, 7.14}, "M/s")); v != worse || c < 0.29 {
		t.Errorf("a 30%% throughput drop is %s (%+.2f), want worse", v, c)
	}
}

// With narrow spreads only the bound decides: a 1% move is unchanged even
// when every new sample is better than every base sample.
func TestJudgeSmallMoveWhereEverySampleWinsIsUnchanged(t *testing.T) {
	base := sampled([]float64{2.000, 2.002, 2.004}, "s")
	base.Better, base.Bound = "lower", 0.1
	cur := sampled([]float64{1.978, 1.980, 1.982}, "s")
	if v, c := judgeOne(base, cur); v != unchanged || c > -0.009 {
		t.Errorf("a -1%% move with narrow spreads is %s (%+.3f), want unchanged", v, c)
	}
}

// A move smaller than the floor is unchanged, even past the bound.
func TestJudgeFloor(t *testing.T) {
	base := sampled([]float64{0.0029, 0.0030, 0.0031}, "s")
	base.Better, base.Bound, base.Floor = "lower", 0.1, 0.001
	slower := sampled([]float64{0.0035, 0.0036, 0.0037}, "s") // +20%, 0.6 ms
	if v, _ := judgeOne(base, slower); v != unchanged {
		t.Errorf("a 0.6 ms move under a 1 ms floor is %s, want unchanged", v)
	}
	muchSlower := sampled([]float64{0.0044, 0.0045, 0.0046}, "s") // 1.5 ms
	if v, _ := judgeOne(base, muchSlower); v != worse {
		t.Errorf("a 1.5 ms move over a 1 ms floor is %s, want worse", v)
	}
}

// Over several pairs each side is the runs' medians, and a side wins in the
// wide-spread case only by beating its base run in nine pairs of ten.
func TestCompareAlternatingPairs(t *testing.T) {
	var pairs [][2]*Results
	for i := 0; i < 10; i++ {
		drift := 1 + 0.05*float64(i%4) // the host's speed moves between pairs
		pairs = append(pairs, [2]*Results{synthetic(drift, 100, 0), synthetic(drift*0.97, 100, 0)})
	}
	var out bytes.Buffer
	if code := compare(&out, pairs); code != 0 {
		t.Errorf("ten pairs exit %d, want 0:\n%s", code, out.String())
	}
	// Across runs the spread (about 10%) is as wide as the bound, and every
	// new run beat its base run, so the 3% gain is improved.
	if s := out.String(); !strings.Contains(s, "10 pairs of runs") || !strings.Contains(s, "run_s improved -3.0%") {
		t.Errorf("ten pairs where the new side always wins by 3%%:\n%s", s)
	}
	// Lose two pairs of the ten and the gain is no longer shown.
	pairs[3][1], pairs[6][1] = synthetic(2, 100, 0), synthetic(2, 100, 0)
	out.Reset()
	compare(&out, pairs)
	if s := out.String(); !strings.Contains(s, "run_s unresolved") {
		t.Errorf("eight wins of ten with a spread over the bound:\n%s", s)
	}
}
