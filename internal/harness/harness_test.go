package harness

import (
	"context"
	"strings"
	"testing"

	"rest/internal/workload"
)

func subset(t *testing.T, names ...string) []workload.Workload {
	t.Helper()
	out := make([]workload.Workload, 0, len(names))
	for _, n := range names {
		wl, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wl)
	}
	return out
}

func TestRunSingle(t *testing.T) {
	wl, _ := workload.ByName("lbm")
	r, err := RunLimited(wl, Fig7Configs()[0], 1, CellLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.Stats.Instructions == 0 {
		t.Error("empty run result")
	}
}

func TestMatrixOverheads(t *testing.T) {
	wls := subset(t, "lbm", "xalanc")
	m, err := RunMatrix(wls, Fig7Configs(), 1, CellLimits{})
	if err != nil {
		t.Fatal(err)
	}

	// Shape assertions from the paper (Figure 7):
	// 1. ASan overhead must far exceed REST secure overhead everywhere.
	for _, wl := range m.Workloads {
		asan := m.Overhead(wl, "asan")
		secure := m.Overhead(wl, "secure-full")
		if asan <= secure {
			t.Errorf("%s: asan (%.1f%%) not > secure-full (%.1f%%)", wl, asan, secure)
		}
	}
	// 2. Allocation-sparse lbm has near-zero REST overhead; alloc-heavy
	//    xalanc pays more.
	if ov := m.Overhead("lbm", "secure-full"); ov > 5 {
		t.Errorf("lbm secure-full overhead = %.1f%%, want < 5%%", ov)
	}
	if m.Overhead("xalanc", "secure-full") <= m.Overhead("lbm", "secure-full") {
		t.Error("xalanc REST overhead not above lbm's")
	}
	// 3. Debug mode costs more than secure mode.
	for _, wl := range m.Workloads {
		if m.Overhead(wl, "debug-full") < m.Overhead(wl, "secure-full") {
			t.Errorf("%s: debug (%.1f%%) < secure (%.1f%%)",
				wl, m.Overhead(wl, "debug-full"), m.Overhead(wl, "secure-full"))
		}
	}
	// 4. PerfectHW ≈ secure (hardware cost ~0): within a few points.
	for _, wl := range m.Workloads {
		d := m.Overhead(wl, "secure-full") - m.Overhead(wl, "perfecthw-full")
		if d < -5 || d > 15 {
			t.Errorf("%s: secure-perfecthw gap = %.1f points, want small", wl, d)
		}
	}
	// 5. Full ≈ heap for REST (stack protection nearly free).
	for _, wl := range m.Workloads {
		d := m.Overhead(wl, "secure-full") - m.Overhead(wl, "secure-heap")
		if d < -5 || d > 10 {
			t.Errorf("%s: full-heap gap = %.1f points, want small", wl, d)
		}
	}

	// Means and renderers.
	if m.WtdAriMeanOverhead("asan") <= m.WtdAriMeanOverhead("secure-full") {
		t.Error("mean asan overhead not above mean REST secure overhead")
	}
	tbl := m.RenderOverheadTable("Figure 7 (subset)")
	if !strings.Contains(tbl, "WtdAriMean") || !strings.Contains(tbl, "GeoMean") {
		t.Error("rendered table missing mean rows")
	}
	csv := m.CSV()
	if !strings.Contains(csv, "lbm,") {
		t.Error("CSV missing workload row")
	}
}

func TestFig3Breakdown(t *testing.T) {
	wls := subset(t, "xalanc", "lbm")
	r, err := RunFig3(context.Background(), wls, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Access validation must be the dominant component for both (the
	// paper's "most persistent and grievous source of overhead").
	for _, wl := range r.Workloads {
		parts := r.Breakdown[wl]
		if len(parts) != 4 {
			t.Fatalf("%s: %d components", wl, len(parts))
		}
	}
	checks := r.Breakdown["lbm"][2]
	if checks <= r.Breakdown["lbm"][0] {
		t.Errorf("lbm: access validation (%.1f) not above allocator (%.1f)",
			checks, r.Breakdown["lbm"][0])
	}
	// Allocator component significant only for the alloc-heavy workload.
	if r.Breakdown["xalanc"][0] <= r.Breakdown["lbm"][0] {
		t.Errorf("xalanc allocator component (%.1f) not above lbm's (%.1f)",
			r.Breakdown["xalanc"][0], r.Breakdown["lbm"][0])
	}
	out := r.Render()
	if !strings.Contains(out, "Memory Access Validation") {
		t.Error("render missing component header")
	}
}

func TestTableIConformance(t *testing.T) {
	out, ok := RunTableI()
	if !ok {
		t.Errorf("Table I conformance failed:\n%s", out)
	}
	if !strings.Contains(out, "eviction") {
		t.Error("Table I output missing eviction row")
	}
}

func TestTableRenderers(t *testing.T) {
	if !strings.Contains(RenderTableII(), "192-entry ROB") {
		t.Error("Table II missing ROB size")
	}
	t3 := RenderTableIII()
	if !strings.Contains(t3, "REST") || !strings.Contains(t3, "CHERI") {
		t.Error("Table III missing rows")
	}
}

func TestMicroStats(t *testing.T) {
	wl, _ := workload.ByName("xalanc")
	s, err := RunMicroStatsParallel(context.Background(), wl, 1, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// §VI-B: debug mode blocks the ROB on stores far more than secure.
	if s.DebugROBStoreBlock <= s.SecureROBStoreBlock {
		t.Errorf("debug ROB store block (%d) not above secure (%d)",
			s.DebugROBStoreBlock, s.SecureROBStoreBlock)
	}
	if s.TokenL2MemPerKInstr < 0 {
		t.Error("negative token crossing rate")
	}
	if !strings.Contains(s.Render(), "ROB blocked-by-store") {
		t.Error("render missing stats")
	}
}

func TestFig8Widths(t *testing.T) {
	wls := subset(t, "xalanc")
	m, err := RunMatrix(wls, append(Fig8Configs(), BinaryConfig{Name: "plain"}), 1, CellLimits{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: token width makes no significant performance difference.
	base := m.Overhead("xalanc", "64-full")
	for _, cfg := range []string{"16-full", "32-full"} {
		d := m.Overhead("xalanc", cfg) - base
		if d < -15 || d > 15 {
			t.Errorf("width config %s deviates %.1f points from 64-full", cfg, d)
		}
	}
}
