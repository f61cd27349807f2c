package persist

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const goldenChecksum = 0x5ec0de5ec0de

// TestGoldenV2TraceFile pins the committed version-2 artifact three ways:
// StoreTrace still produces those exact bytes, today's decoder still reads
// them back to the original recording, and a version bump turns the same
// file into a clean *VersionError rejection (the recompute path), never a
// crash or a misread. This is the compatibility contract a cache on disk
// survives across releases by.
func TestGoldenV2TraceFile(t *testing.T) {
	path := filepath.Join("testdata", "golden_v2.trc")
	rec := testTrace(300, 8) // the fixed recording behind the file
	defer rec.Release()
	id := SumID("golden-v2")
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
		t.Fatalf("encoder no longer reproduces the committed v2 bytes (%d vs %d bytes) — if the format changed, bump FormatVersion and add a golden file for the new generation", len(encoded), len(committed))
	}

	got, checksum, err := decodeTrace(committed, &id)
	if err != nil {
		t.Fatalf("decoder no longer reads the committed v2 file: %v", err)
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

// TestGoldenV1TraceFile keeps the previous generation's committed artifact
// (31-byte packed entries) as a fixture of what a store written by an older
// binary holds. This build refuses it as *VersionError, and a cache that
// finds it deletes it on the first load, answers ErrMiss after that and
// counts one corruption: the entry is recomputed once, never misread.
func TestGoldenV1TraceFile(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("testdata", "golden_v1.trc"))
	if err != nil {
		t.Fatal(err)
	}
	id := SumID("golden-v1")
	var verr *VersionError
	if _, _, err := decodeTrace(committed, &id); !errors.As(err, &verr) || verr.Got != 1 {
		t.Fatalf("v1 file: want *VersionError for version 1, got %v", err)
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
		t.Fatalf("cache load of the v1 file: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("v1 file not deleted on its first load")
	}
	if _, _, err := c.LoadTrace(id); !errors.Is(err, ErrMiss) {
		t.Fatalf("second load after rejection: %v", err)
	}
	if cc := c.Counters(); cc.Corruptions != 1 {
		t.Fatalf("rejection not counted: %+v", cc)
	}
}
