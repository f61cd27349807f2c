package harness

import (
	"fmt"
	"strings"
	"testing"

	"rest/internal/attack"
	"rest/internal/prog"
	"rest/internal/world"
)

func TestRenderBarChart(t *testing.T) {
	wls := subset(t, "lbm")
	m, err := RunMatrix(wls, Fig7Configs(), 1, CellLimits{})
	if err != nil {
		t.Fatal(err)
	}
	chart := m.RenderBarChart("Figure 7", 180)
	if !strings.Contains(chart, "lbm") || !strings.Contains(chart, "asan") {
		t.Error("chart missing rows")
	}
	if !strings.Contains(chart, "#") {
		t.Error("chart has no bars")
	}
}

// TestMatrixSummary checks the numbers a Figure 7 matrix reports and the
// headline built from them: the baseline has cycles, an instrumented
// config has an overhead cell, and the headline quotes the weighted means.
func TestMatrixSummary(t *testing.T) {
	m, err := RunMatrix(subset(t, "lbm"), Fig7Configs(), 1, CellLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles["lbm"]["plain"] == 0 {
		t.Error("missing baseline cycles")
	}
	if !m.complete("lbm", "secure-full") {
		t.Error("missing overhead cell")
	}
	if m.WtdAriMeanOverhead("asan") <= 0 {
		t.Errorf("asan weighted mean = %.2f%%, want an overhead", m.WtdAriMeanOverhead("asan"))
	}
	want := fmt.Sprintf("REST secure full %.1f%% vs ASan %.1f%% ",
		m.WtdAriMeanOverhead("secure-full"), m.WtdAriMeanOverhead("asan"))
	if sum := m.Summary(); !strings.HasPrefix(sum, want) {
		t.Errorf("headline = %q, want prefix %q", sum, want)
	}
}

// TestTableIIIConsistency verifies Table III's REST row against the actual
// behaviour of the implementation, via the attack suite's ground truth.
func TestTableIIIConsistency(t *testing.T) {
	claims := TableIIIRESTRow()
	if claims.NeedsShadowSpace {
		t.Error("claims say no shadow space; the REST flavour must not use one")
	}
	// Spatial = Linear: linear overflows caught, targeted jumps not.
	caught := attackDetected(t, "heap-linear-overflow-write")
	jumped := attackDetected(t, "jump-over-redzone")
	if !caught || jumped {
		t.Errorf("spatial pattern claim violated: linear=%v jump=%v", caught, jumped)
	}
	// Temporal = Until realloc: UAF caught, post-recycle not.
	uaf := attackDetected(t, "uaf-read")
	recycled := attackDetected(t, "uaf-after-recycle")
	if !uaf || recycled {
		t.Errorf("temporal window claim violated: uaf=%v recycled=%v", uaf, recycled)
	}
	// Composable: the heartbleed memcpy runs in UNINSTRUMENTED library code
	// and is still caught under heap-only REST.
	if !attackDetected(t, "heartbleed") {
		t.Error("composability claim violated: uninstrumented memcpy not covered")
	}
}

func attackDetected(t *testing.T, name string) bool {
	t.Helper()
	a, ok := attack.ByName(name)
	if !ok {
		t.Fatalf("unknown attack %q", name)
	}
	w, err := world.Build(world.Spec{Pass: prog.RESTHeap(64)}, a.Build)
	if err != nil {
		t.Fatal(err)
	}
	out := w.RunFunctional()
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	return out.Detected()
}
