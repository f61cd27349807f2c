package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"

	"rest/internal/workload"
)

// goldenModelVersion and goldenModelDigest pin what the simulator computes
// over modelGoldenGrid. A change that moves any cpu.Stats field or outcome
// checksum of the grid must bump ModelVersion, so that result stores filled
// by the old model miss instead of serving its numbers, and record the new
// digest here with the new version.
const (
	goldenModelVersion = 1
	goldenModelDigest  = "f39fe12ae0dc1b47a611ddc62591d43eb4981badbd07f434c8e940d56477b7e5"
)

// modelGoldenGrid is the fixed grid the digest covers: every workload at
// scale 1, plain and secure-full, each on the OoO and the in-order core —
// 48 cells, all with the default CPU and cache hierarchy.
func modelGoldenGrid(t *testing.T) []BinaryConfig {
	t.Helper()
	var cfgs []BinaryConfig
	for _, inOrder := range []bool{false, true} {
		for _, name := range []string{"plain", "secure-full"} {
			cfg, ok := configByName(Fig7Configs(), name)
			if !ok {
				t.Fatalf("Fig7Configs has no %q", name)
			}
			if inOrder {
				cfg.Name += "/inorder"
				cfg.InOrder = true
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// configByName finds one named config.
func configByName(cfgs []BinaryConfig, name string) (BinaryConfig, bool) {
	for _, c := range cfgs {
		if c.Name == name {
			return c, true
		}
	}
	return BinaryConfig{}, false
}

// hashStats writes every cpu.Stats field into h, walked by reflection so a
// new field joins the digest without an edit here. Only clean cells are in
// the grid, so the Exception pointer must be nil.
func hashStats(t *testing.T, h hash.Hash, cell string, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Uint64:
			fmt.Fprintf(h, "|%s=%d", name, f.Uint())
		case reflect.Float64:
			fmt.Fprintf(h, "|%s=%#x", name, math.Float64bits(f.Float()))
		case reflect.Bool:
			fmt.Fprintf(h, "|%s=%t", name, f.Bool())
		case reflect.Pointer:
			if !f.IsNil() {
				t.Fatalf("%s: %s is set; the golden grid holds clean cells only", cell, name)
			}
		default:
			t.Fatalf("cpu.Stats field %s has kind %s, which the golden digest cannot hash yet", name, f.Kind())
		}
	}
}

// TestModelGolden is ModelVersion's gate. It digests every cpu.Stats field
// and the outcome checksum of each cell of modelGoldenGrid — but not the
// cells' identities, which contain ModelVersion — and fails when the digest
// moves while ModelVersion does not. A change that only makes the simulator
// faster passes untouched.
func TestModelGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the digest is a property of the model, not of interleavings; the race build would take minutes to recompute it")
	}
	t.Parallel()
	cfgs := modelGoldenGrid(t)
	m, err := RunMatrixParallel(context.Background(), workload.All(), cfgs, 1,
		ParallelOptions{Workers: 2, TraceCache: NewTraceCache()})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, wl := range m.Workloads {
		for _, cfg := range m.Configs {
			r := m.Result(wl, cfg)
			cell := wl + "/" + cfg
			fmt.Fprintf(h, "%s", cell)
			hashStats(t, h, cell, reflect.ValueOf(*r.Stats))
			fmt.Fprintf(h, "|checksum=%d\n", r.Outcome.Checksum)
		}
	}
	if cells := len(m.Workloads) * len(m.Configs); cells != 48 {
		t.Fatalf("the golden grid ran %d cells, want 48", cells)
	}
	got := hex.EncodeToString(h.Sum(nil))
	switch {
	case ModelVersion != goldenModelVersion:
		t.Fatalf("ModelVersion is %d but the golden digest was recorded at %d: record this model's digest %s with version %d",
			ModelVersion, goldenModelVersion, got, ModelVersion)
	case got != goldenModelDigest:
		t.Fatalf("the model's results moved (digest %s, recorded %s) but ModelVersion is still %d: bump ModelVersion so stores filled by the old model recompute, and record the new digest with it",
			got, goldenModelDigest, ModelVersion)
	}
}
