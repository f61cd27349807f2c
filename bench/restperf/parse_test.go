package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// The fixtures were captured from scale-1 restbench runs (-j 2):
//
//	fig8-scale1.*          -fig8 -csv -trace FILE -cache-dir DIR (cold store)
//	fig8-scale1-warm.stderr  the same command again (warm store)
//	fig8sens-scale1.stderr   -fig8sens -csv
func fixture(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestParseStderr(t *testing.T) {
	cold, err := parseStderr(fixture(t, "fig8-scale1.stderr"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Elapsed) != 1 || cold.Elapsed[0].Sweep != "fig8" || cold.Elapsed[0].D <= 0 {
		t.Errorf("cold elapsed = %+v, want one positive fig8 sweep", cold.Elapsed)
	}
	if cold.Replayed != 0 || cold.ResultHits != 0 {
		t.Errorf("cold run: %d replayed, %d result hits; want 0, 0", cold.Replayed, cold.ResultHits)
	}
	warm, err := parseStderr(fixture(t, "fig8-scale1-warm.stderr"))
	if err != nil {
		t.Fatal(err)
	}
	if warm.ResultHits != 84 {
		t.Errorf("warm run: %d result hits, want all 84 cells", warm.ResultHits)
	}
	sens, err := parseStderr(fixture(t, "fig8sens-scale1.stderr"))
	if err != nil {
		t.Fatal(err)
	}
	if sens.Replayed != 192 {
		t.Errorf("fig8sens: %d replayed, want 192", sens.Replayed)
	}

	// Durations print in Go's format, rounded to milliseconds.
	f, err := parseStderr("fig3: elapsed 1ms (j=2)\nnoise\nfig7: elapsed 1m2.5s (j=2)\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.totalElapsed(); got != 62501*time.Millisecond {
		t.Errorf("total elapsed = %v, want 1m2.501s", got)
	}
}

func TestParseCSVAndCatapultAgree(t *testing.T) {
	mats, err := parseCSV(fixture(t, "fig8-scale1.stdout"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mats) != 1 {
		t.Fatalf("found %d matrices, want 1", len(mats))
	}
	m := mats[0]
	if len(m.Workloads) != 12 || len(m.Configs) != 7 {
		t.Fatalf("matrix is %dx%d, want 12x7", len(m.Workloads), len(m.Configs))
	}
	g, err := gridFor(m, SeedInputs{Scale: 1})
	if err != nil || g.name != "fig8" {
		t.Fatalf("gridFor = %s, %v; want fig8", g.name, err)
	}
	slices, err := parseCatapult([]byte(fixture(t, "fig8-scale1.trace.json")))
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) != 84 {
		t.Fatalf("%d cell slices, want 84", len(slices))
	}
	for _, s := range slices {
		if s.Sweep != "fig8" || s.Verdict != "ok" || s.Dur <= 0 || s.Instrs == 0 {
			t.Errorf("slice %+v", s)
		}
		if want := m.Cycles[s.Workload][s.Config]; s.Cycles != want {
			t.Errorf("%s/%s: the trace says %d cycles, the matrix %d", s.Workload, s.Config, s.Cycles, want)
		}
	}
}

func TestParseCSVRejectsHoles(t *testing.T) {
	stdout := "benchmark,plain,asan\nbzip2,100,NA\n"
	if _, err := parseCSV(stdout); err == nil || !strings.Contains(err.Error(), "bzip2/asan") {
		t.Errorf("a hole parsed without the error naming it: %v", err)
	}
}

// The launcher notes when the first elapsed line arrives, however the
// child's writes split it, and passes every byte on.
func TestSweepClockNotesTheFirstElapsedLine(t *testing.T) {
	var out strings.Builder
	c := &sweepClock{w: &out, start: time.Now().Add(-time.Second)}
	for _, p := range []string{"opening the store\n", "fig7: elap", "sed 2.5s (j=2)\nfig8", ": elapsed 1s (j=2)\n"} {
		before := c.first
		if _, err := c.Write([]byte(p)); err != nil {
			t.Fatal(err)
		}
		if p == "sed 2.5s (j=2)\nfig8" && c.first == 0 {
			t.Error("the first elapsed line was not noted when it completed")
		}
		if before != 0 && c.first != before {
			t.Error("a later elapsed line moved the first sweep's end")
		}
	}
	if c.first < time.Second {
		t.Errorf("first sweep ended %v after start, want at least 1s", c.first)
	}
	if !strings.HasPrefix(out.String(), "opening the store\nfig7: elapsed 2.5s") {
		t.Errorf("stderr passed on as %q", out.String())
	}
	iv := invocation{FirstSweepEnd: 2600 * time.Millisecond, Facts: stderrFacts{Elapsed: []sweepElapsed{{"fig7", 2500 * time.Millisecond}, {"fig8", time.Second}}}}
	if got := iv.setup(); got != 100*time.Millisecond {
		t.Errorf("set-up = %v, want the 100ms before the first sweep", got)
	}
}
