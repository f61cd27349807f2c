package trace

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"rest/internal/isa"
)

// synthEntries expands program, read as 6-byte entry templates, into an
// n-entry trace for a Recorder of the given token width. Entry j follows
// template j mod T, on its k = j / T-th repetition:
//
//	t[0]  site: PC 0x1000 + 4*t[0]
//	t[1]  Op (mod isa.NumOps)
//	t[2]  bit 0 Taken (two repetitions in three), bit 1 Faults (odd
//	      repetitions), bit 2 KindRuntime, bits 3-4 the Addr pattern,
//	      bits 5-6 the Target pattern, bit 7 a fresh PC on every repetition,
//	      which adds a new site mid-block each time
//	t[3]  Dst (low nibble) and Src1 (high nibble)
//	t[4]  Src2 (low nibble) and Size (high nibble)
//	t[5]  v, the patterns' parameter
//
// Addr patterns: 0 zero; 1 a stride, 0x10000 + v<<8 + k*int8(v)*8 (stride
// zero when v is); 2 wrap-around, alternately ^uint64(0)-v and v+1; 3
// pseudo-random. Target patterns: 0 zero; 1 the constant 0x2000+v; 2
// wrap-around as for Addr; 3 pseudo-random. ARM and DISARM addresses fold
// onto the two lines at 0x4000 in 8-byte steps, so the token shadow changes
// often.
func synthEntries(program []byte, n int, width uint64) []Entry {
	T := len(program) / 6
	if T == 0 {
		n = 0
	}
	es := make([]Entry, n)
	for j := range es {
		t := program[j%T*6:][:6]
		k := uint64(j / T)
		v := uint64(t[5])
		e := Entry{
			Seq:  uint64(j),
			PC:   0x1000 + 4*uint64(t[0]),
			Op:   isa.Op(int(t[1]) % isa.NumOps),
			Dst:  t[3] & 15,
			Src1: t[3] >> 4,
			Src2: t[4] & 15,
			Size: t[4] >> 4,
		}
		fl := t[2]
		e.Taken = fl&1 != 0 && k%3 != 0
		e.Faults = fl&2 != 0 && k%2 == 1
		if fl&4 != 0 {
			e.Kind = KindRuntime
		}
		if fl&0x80 != 0 {
			e.PC = 0x100000 + 4*uint64(j)
		}
		e.Addr = synthValue(fl>>3&3, 0x10000+v<<8+k*uint64(int64(int8(v))*8), v, k, uint64(j))
		e.Target = synthValue(fl>>5&3, 0x2000+v, v, k, uint64(j)^0x5bd1e995)
		if e.Op == isa.OpArm || e.Op == isa.OpDisarm {
			e.Addr = 0x4000 + e.Addr%16*8
		}
		es[j] = e
	}
	return es
}

// synthValue is one synthEntries value pattern (see there).
func synthValue(pattern byte, regular, v, k, salt uint64) uint64 {
	switch pattern {
	case 1:
		return regular
	case 2:
		if k%2 == 0 {
			return ^uint64(0) - v
		}
		return v + 1
	case 3:
		// splitmix64
		z := salt*0x9e3779b97f4a7c15 + v
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	return 0
}

// synthProgram is a synthEntries program with every value pattern and a
// machine-like batch shape: user instructions followed by runtime ARM and
// DISARM micro-ops.
var synthProgram = []byte{
	0x01, byte(isa.OpAdd), 0, 0x21, 0x03, 0, // ALU, no values
	0x02, byte(isa.OpLoad), 1 << 3, 0x14, 0x80, 8, // strided load
	0x03, byte(isa.OpRTCall), 0, 0, 0, 0, // runtime call ...
	0x04, byte(isa.OpArm), 4 | 1<<3, 0, 0x40, 1, // ... arming in strides
	0x05, byte(isa.OpDisarm), 4 | 2 | 3<<3, 0, 0, 7, // ... and disarming, faulting on odd k
	0x06, byte(isa.OpBeq), 1 | 1<<5, 0x05, 0, 0x30, // direct branch
	0x07, byte(isa.OpBeq), 1 | 3<<5, 0x06, 0, 0, // indirect branch
	0x08, byte(isa.OpStore), 2<<3 | 2<<5, 0x45, 0x40, 0x11, // wrap-around store
	0x09, byte(isa.OpAdd), 0x80, 0x12, 0, 0, // a new site every time
}

// FuzzRecorderRoundtrip is the codec's correctness contract: any entry
// sequence, expanded from (program, count, width) by synthEntries, comes back
// bit-exact through At in ascending and random order, through Next, and
// through ReadBatch with random batch sizes; a batch-reading Replayer's
// token shadow matches one driven entry at a time at every entry it hands
// out; and the serialized form round-trips, DecodeRecorder giving back a
// Recorder with the same entries and storage that serializes to the same
// bytes. count reaches past blockEntries, so decoding crosses blocks, and
// the random batch sizes stop ReadBatch inside runs. The committed corpus
// under testdata/fuzz/FuzzRecorderRoundtrip seeds it (steady-loop-runs is
// almost all runs).
func FuzzRecorderRoundtrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, program []byte, count uint16, width uint8) {
		w := []uint64{0, 8, 64}[width%3]
		es := synthEntries(program, int(count), w)
		rec := NewRecorder(w, 0)
		rec.AppendFrom(NewSliceReader(es))
		if rec.Len() != len(es) {
			t.Fatalf("Len = %d, want %d", rec.Len(), len(es))
		}
		for i, want := range es {
			if got := rec.At(i); got != want {
				t.Fatalf("ascending At(%d) = %+v, want %+v", i, got, want)
			}
		}
		rng := rand.New(rand.NewSource(int64(len(program))<<20 ^ int64(count)<<2 ^ int64(width)))
		for k := 0; k < 256 && len(es) > 0; k++ {
			i := rng.Intn(len(es))
			if got := rec.At(i); got != es[i] {
				t.Fatalf("random At(%d) = %+v, want %+v", i, got, es[i])
			}
		}
		if got := Collect(rec.Replayer()); !slices.Equal(got, es) {
			t.Fatalf("Next stream diverges from the recorded entries")
		}

		batch, step := rec.Replayer(), rec.Replayer()
		buf := make([]Entry, 300)
		pos := 0
		for n := batch.ReadBatch(buf[:1+rng.Intn(len(buf))]); n > 0; n = batch.ReadBatch(buf[:1+rng.Intn(len(buf))]) {
			for _, e := range buf[:n] {
				if e != es[pos] {
					t.Fatalf("ReadBatch entry %d = %+v, want %+v", pos, e, es[pos])
				}
				if _, ok := step.Next(); !ok {
					t.Fatalf("Next ended at %d", pos)
				}
				for _, line := range []uint64{0x4000, 0x4040} {
					if b, s := batch.LineTokenMask(line), step.LineTokenMask(line); b != s {
						t.Fatalf("entry %d: line %#x mask %#b under ReadBatch, %#b under Next", pos, line, b, s)
					}
				}
				pos++
			}
		}
		if pos != len(es) {
			t.Fatalf("ReadBatch yielded %d entries, want %d", pos, len(es))
		}

		enc := rec.AppendEncoding(nil)
		dec, err := DecodeRecorder(w, uint64(len(es)), enc)
		if err != nil {
			t.Fatalf("DecodeRecorder: %v", err)
		}
		if dec.Bytes() != rec.Bytes() {
			t.Fatalf("decoded Recorder holds %d bytes, the original %d", dec.Bytes(), rec.Bytes())
		}
		if again := dec.AppendEncoding(nil); !bytes.Equal(again, enc) {
			t.Fatalf("decoded Recorder serializes to %d different bytes, the original to %d", len(again), len(enc))
		}
		rp := dec.Replayer()
		pos = 0
		for n := rp.ReadBatch(buf); n > 0; n = rp.ReadBatch(buf) {
			for _, e := range buf[:n] {
				if e != es[pos] {
					t.Fatalf("decoded entry %d = %+v, want %+v", pos, e, es[pos])
				}
				pos++
			}
		}
		if pos != len(es) {
			t.Fatalf("decoded Recorder yielded %d entries, want %d", pos, len(es))
		}
	})
}
