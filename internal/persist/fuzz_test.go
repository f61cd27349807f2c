package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// framedTrace wraps a serialized trace, well-formed or not, in a current
// header whose CRCs hold, so only the payload's own validation can object.
func framedTrace(payload []byte, entries uint64) []byte {
	return traceFile(8, entries, 42, ID{}, payload)
}

// oneSitePayload is a serialized trace with a one-row site table and a
// single block holding blk.
func oneSitePayload(blk ...byte) []byte {
	p := binary.AppendUvarint(nil, 1)
	p = append(p, make([]byte, 14)...) // site 0: all-zero row
	p = binary.AppendUvarint(p, uint64(len(blk)))
	return append(p, blk...)
}

// fuzzSeeds builds the interesting starting shapes: valid files at token
// widths 0 and 8, an empty trace, a truncated file, a flipped byte, files
// whose CRCs hold around a hostile entry count, site count or site index or
// a same-site entry with no recorded successor, a file of the previous
// format generation, a valid multi-block file the run code carries, and
// files whose CRCs hold around a run with no recorded successor, a run
// crossing the end of its block and a run header with stray bits. The
// committed corpus under testdata/fuzz/FuzzTraceDecode mirrors these (see
// TestWriteFuzzCorpus).
func fuzzSeeds() [][]byte {
	encode := func(n int, tokenWidth uint64) []byte {
		rec := testTrace(n, tokenWidth)
		defer rec.Release()
		data, err := storedBytes(rec, SumID("fuzz-seed"), 42)
		if err != nil {
			panic(err)
		}
		return data
	}
	valid0, valid8 := encode(64, 0), encode(64, 8)
	flip := bytes.Clone(valid8)
	flip[len(flip)-3] ^= 0x10
	v2, err := os.ReadFile(filepath.Join("testdata", "golden_v2.trc"))
	if err != nil {
		panic(err)
	}
	loop := loopTrace(2*traceBlockEntries+7, 8)
	defer loop.Release()
	runs, err := storedBytes(loop, SumID("fuzz-seed"), 42)
	if err != nil {
		panic(err)
	}
	return [][]byte{
		valid0,
		valid8,
		encode(0, 0),
		valid8[:len(valid8)/2], // truncated mid-payload
		flip,
		framedTrace(valid0[traceHeaderLen:], 1<<60),      // entry count far past the payload
		framedTrace(binary.AppendUvarint(nil, 1<<40), 1), // site count far past the payload
		framedTrace(oneSitePayload(0x00, 0x07), 1),       // site index 7 of a one-site table
		framedTrace(oneSitePayload(0x00, 0x00, 0x04), 2), // same site (bit 2), no successor recorded
		v2,
		runs,
		framedTrace(oneSitePayload(0x00, 0x00, 0x18, 0x01), 2),             // a run (Addr code 3), no successor recorded
		framedTrace(oneSitePayload(0x00, 0x00, 0x00, 0x00, 0x18, 0x04), 5), // a run of 4 with 3 entries left in its block
		framedTrace(oneSitePayload(0x00, 0x00, 0x00, 0x00, 0x19, 0x01), 3), // a run header with Taken set
	}
}

// FuzzTraceDecode is the robustness contract in executable form: decodeTrace
// must map arbitrary bytes to either a fully valid Recorder or a typed error
// (*CorruptError / *VersionError) — never a panic, never an untyped failure.
func FuzzTraceDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, _, err := decodeTrace(data, nil)
		if err != nil {
			if rec != nil {
				t.Fatal("non-nil recorder alongside an error")
			}
			var cerr *CorruptError
			var verr *VersionError
			if !errors.As(err, &cerr) && !errors.As(err, &verr) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A successful decode must store and load again: the recorder is
		// structurally sound, not just non-crashing.
		defer rec.Release()
		again, err := storedBytes(rec, SumID("fuzz-reencode"), 0)
		if err != nil {
			t.Fatalf("decoded recorder does not store: %v", err)
		}
		back, _, err := decodeTrace(again, nil)
		if err != nil {
			t.Fatalf("re-stored recorder does not decode: %v", err)
		}
		defer back.Release()
		if back.Len() != rec.Len() {
			t.Fatalf("re-stored recorder holds %d entries, want %d", back.Len(), rec.Len())
		}
	})
}

var writeCorpus = flag.Bool("write-fuzz-corpus", false, "regenerate testdata/fuzz/FuzzTraceDecode seed files")

// TestWriteFuzzCorpus materializes fuzzSeeds as a committed corpus in the
// `go test fuzz v1` encoding, so `go test -fuzz` and plain `go test` start
// from the same shapes on a fresh checkout. Run with -write-fuzz-corpus to
// regenerate.
func TestWriteFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzTraceDecode")
	if *writeCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range fuzzSeeds() {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	names, err := os.ReadDir(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("fuzz corpus missing (regenerate with -write-fuzz-corpus): %v", err)
	}
}
