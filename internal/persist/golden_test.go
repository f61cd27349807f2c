package persist

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rest/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const goldenChecksum = 0x5ec0de5ec0de

// goldenTrace is the fixed recording behind golden_v3.trc: testTrace's
// explicitly coded entries, then a loop the run code carries.
func goldenTrace() *trace.Recorder {
	rec := trace.NewRecorder(8, 0)
	for _, part := range []*trace.Recorder{testTrace(300, 8), loopTrace(300, 8)} {
		rec.AppendFrom(part.Replayer())
	}
	return rec
}

// TestGoldenV3TraceFile pins the committed version-3 artifact three ways:
// StoreTrace still produces those exact bytes, today's decoder still reads
// them back to the original recording, and a version bump turns the same
// file into a clean *VersionError rejection (the recompute path), never a
// crash or a misread. This is the compatibility contract a cache on disk
// survives across releases by.
func TestGoldenV3TraceFile(t *testing.T) {
	path := filepath.Join("testdata", "golden_v3.trc")
	rec := goldenTrace()
	defer rec.Release()
	id := SumID("golden-v3")
	encoded, err := storedBytes(rec, id, goldenChecksum)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, encoded, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal(committed, encoded) {
		t.Fatalf("encoder no longer reproduces the committed v3 bytes (%d vs %d bytes) — if the format changed, bump FormatVersion and add a golden file for the new generation", len(encoded), len(committed))
	}

	got, checksum, err := decodeTrace(committed, &id)
	if err != nil {
		t.Fatalf("decoder no longer reads the committed v3 file: %v", err)
	}
	defer got.Release()
	if checksum != goldenChecksum {
		t.Fatalf("checksum %#x", checksum)
	}
	assertTraceEqual(t, rec, got)

	// The same bytes stamped with a future format generation must be
	// refused up front.
	var verr *VersionError
	if _, _, err := decodeTrace(patchVersion(t, committed, FormatVersion+1), &id); !errors.As(err, &verr) {
		t.Fatalf("version-bumped golden file: want *VersionError, got %v", err)
	}
}

// TestGoldenV1TraceFile keeps the first generation's committed artifact
// (31-byte packed entries) as a fixture of what a store written by an older
// binary holds; checkRefusedGeneration says what this build does with it.
func TestGoldenV1TraceFile(t *testing.T) {
	checkRefusedGeneration(t, 1)
}

// TestGoldenV2TraceFile does the same for the previous generation's
// artifact (today's layout without the run code).
func TestGoldenV2TraceFile(t *testing.T) {
	checkRefusedGeneration(t, 2)
}

// checkRefusedGeneration loads testdata/golden_v<version>.trc, written by an
// older binary. This build refuses it as *VersionError, and a cache that
// finds it deletes it on the first load, answers ErrMiss after that and
// counts one corruption: the entry is recomputed once, never misread.
func checkRefusedGeneration(t *testing.T, version int) {
	t.Helper()
	name := fmt.Sprintf("golden_v%d", version)
	committed, err := os.ReadFile(filepath.Join("testdata", name+".trc"))
	if err != nil {
		t.Fatal(err)
	}
	id := SumID(fmt.Sprintf("golden-v%d", version))
	var verr *VersionError
	if _, _, err := decodeTrace(committed, &id); !errors.As(err, &verr) || int(verr.Got) != version {
		t.Fatalf("%s: want *VersionError for version %d, got %v", name, version, err)
	}

	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The older binary's store layout, traces/ included.
	path := c.path(traceKind, id)
	if err := os.Mkdir(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.LoadTrace(id); !errors.As(err, &verr) {
		t.Fatalf("cache load of %s: %v", name, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("%s not deleted on its first load", name)
	}
	if _, _, err := c.LoadTrace(id); !errors.Is(err, ErrMiss) {
		t.Fatalf("second load after rejection: %v", err)
	}
	if cc := c.Counters(); cc.Corruptions != 1 {
		t.Fatalf("rejection not counted: %+v", cc)
	}
}
