package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzSeeds builds the interesting starting shapes: valid files in both
// block encodings, an empty trace, a version-skewed header, and classic
// mutations (truncation, bit flip, hostile lengths). The committed corpus
// under testdata/fuzz/FuzzTraceDecode mirrors these (see
// TestWriteFuzzCorpus).
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	encode := func(n int, tokenWidth uint64, compress bool) []byte {
		rec := testTrace(n, tokenWidth)
		defer rec.Release()
		data, err := writerBytes(rec, SumID("fuzz-seed"), 42, compress)
		if err != nil {
			panic(err)
		}
		return data
	}
	validRaw := encode(64, 8, false)
	validZ := encode(64, 8, true)
	seeds = append(seeds, validRaw, validZ, encode(0, 0, false))

	seeds = append(seeds, validRaw[:len(validRaw)/2]) // truncated mid-block
	seeds = append(seeds, validRaw[:traceHeaderLen])  // header only, entries promised

	flip := bytes.Clone(validZ)
	flip[len(flip)-3] ^= 0x10
	seeds = append(seeds, flip)

	skew := bytes.Clone(validRaw)
	binary.LittleEndian.PutUint32(skew[8:12], FormatVersion+9)
	binary.LittleEndian.PutUint32(skew[76:80], crc32.ChecksumIEEE(skew[:76]))
	seeds = append(seeds, skew)

	hostile := bytes.Clone(validRaw)
	binary.LittleEndian.PutUint64(hostile[24:32], 1<<60) // absurd entry count
	binary.LittleEndian.PutUint32(hostile[76:80], crc32.ChecksumIEEE(hostile[:76]))
	seeds = append(seeds, hostile)

	seeds = append(seeds, []byte{}, []byte(traceMagic))
	return seeds
}

// FuzzTraceDecode is the robustness contract in executable form: decodeTrace
// must map arbitrary bytes to either a fully valid Recorder or a typed error
// (*CorruptError / *VersionError) — never a panic, never an untyped failure.
func FuzzTraceDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, _, err := decodeTrace(bytes.NewReader(data), nil)
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
		// A successful decode must re-encode: the recorder is structurally
		// sound, not just non-crashing.
		defer rec.Release()
		if _, err := writerBytes(rec, SumID("fuzz-reencode"), 0, false); err != nil {
			t.Fatalf("decoded recorder does not re-encode: %v", err)
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
