package persist

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rest/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const goldenChecksum = 0x5ec0de5ec0de

// goldenTrace is the fixed recording behind testdata/golden_v1.trc. It is
// stored uncompressed so the committed bytes depend only on this format, not
// on any compressor's output across Go releases.
func goldenTrace() *trace.Recorder {
	return testTrace(300, 8)
}

func goldenID() ID { return SumID("golden-v1") }

// TestGoldenV1TraceFile pins the committed version-1 artifact three ways:
// TraceWriter still produces those exact bytes, today's decoder still
// reads them back to the original recording, and a version bump turns the
// same file into a clean *VersionError rejection (the recompute path), never
// a crash or a misread. This is the compatibility contract a cache on disk
// survives across releases by.
func TestGoldenV1TraceFile(t *testing.T) {
	path := filepath.Join("testdata", "golden_v1.trc")
	rec := goldenTrace()
	defer rec.Release()
	encoded, err := writerBytes(rec, goldenID(), goldenChecksum, false)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, encoded, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal(committed, encoded) {
		t.Fatalf("encoder no longer reproduces the committed v1 bytes (%d vs %d bytes) — if the format changed, bump FormatVersion and regenerate with -update", len(encoded), len(committed))
	}

	id := goldenID()
	got, checksum, err := decodeTrace(bytes.NewReader(committed), &id)
	if err != nil {
		t.Fatalf("decoder no longer reads the committed v1 file: %v", err)
	}
	defer got.Release()
	if checksum != goldenChecksum {
		t.Fatalf("checksum %#x", checksum)
	}
	assertTraceEqual(t, rec, got)

	// The same bytes stamped with a future format generation must be
	// refused up front.
	var verr *VersionError
	if _, _, err := decodeTrace(bytes.NewReader(patchVersion(t, committed, FormatVersion+1)), &id); !errors.As(err, &verr) {
		t.Fatalf("version-bumped golden file: want *VersionError, got %v", err)
	}

	// End to end through a cache directory: a version-skewed file behaves
	// exactly like a miss after its one rejection.
	dir := t.TempDir()
	c, err := Open(dir, Options{NoCompress: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := os.WriteFile(c.path(kindTrace, id), patchVersion(t, committed, FormatVersion+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.LoadTrace(id); !errors.As(err, &verr) {
		t.Fatalf("cache load of skewed file: %v", err)
	}
	if _, _, err := c.LoadTrace(id); !errors.Is(err, ErrMiss) {
		t.Fatalf("second load after rejection: %v", err)
	}
	if cc := c.Counters(); cc.Corruptions != 1 {
		t.Fatalf("rejection not counted: %+v", cc)
	}
}
