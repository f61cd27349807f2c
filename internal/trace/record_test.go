package trace

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rest/internal/isa"
)

// sampleEntries exercises every column: register ops, memory ops with
// addresses and sizes, taken/untaken branches, runtime micro-ops and a
// faulting ARM.
func sampleEntries() []Entry {
	return []Entry{
		{Seq: 0, PC: 0x1000, Op: isa.OpAdd, Dst: 3, Src1: 1, Src2: 2},
		{Seq: 1, PC: 0x1004, Op: isa.OpLoad, Dst: 4, Src1: 3, Addr: 0xbeef0, Size: 8},
		{Seq: 2, PC: 0x1008, Op: isa.OpBeq, Src1: 4, Taken: true, Target: 0x2000},
		{Seq: 3, PC: 0x2000, Op: isa.OpStore, Src1: 4, Src2: 5, Addr: 0xbeef8, Size: 4},
		{Seq: 4, PC: 0x2004, Op: isa.OpRTCall, Dst: isa.NoReg},
		{Seq: 5, PC: 0xf000, Op: isa.OpArm, Kind: KindRuntime, Addr: 0xc0c0, Size: 64},
		{Seq: 6, PC: 0xf004, Op: isa.OpDisarm, Kind: KindRuntime, Addr: 0xc100, Faults: true},
		{Seq: 7, PC: 0x2008, Op: isa.OpBeq, Taken: false, Target: 0x3000},
		{Seq: 8, PC: 0x200c, Op: isa.OpHalt},
	}
}

func TestRecorderRoundtrip(t *testing.T) {
	es := sampleEntries()
	rec := NewRecorder(0, 0)
	if n := rec.AppendFrom(NewSliceReader(es)); n != len(es) {
		t.Fatalf("AppendFrom consumed %d entries, want %d", n, len(es))
	}
	if rec.Len() != len(es) {
		t.Fatalf("Len = %d, want %d", rec.Len(), len(es))
	}
	// Every entry is a new site, so each codes its site index explicitly:
	// a header byte and a one-byte index. Addr and Target deltas from a
	// fresh site's zero prediction add three varint bytes apiece to entries
	// 1, 2, 3, 5, 6 and 7 (0xbeef0, 0x2000, 0xbeef8, 0xc0c0, 0xc100 and
	// 0x3000 all zigzag to values between 2^14 and 2^21). The nine
	// site-table rows take 16 bytes each.
	if want := uint64(9*2 + 6*3 + 9*16); rec.Bytes() != want {
		t.Errorf("Bytes = %d, want %d", rec.Bytes(), want)
	}
	for i, want := range es {
		if got := rec.At(i); !reflect.DeepEqual(got, want) {
			t.Errorf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
	if got := Collect(rec.Replayer()); !reflect.DeepEqual(got, es) {
		t.Errorf("Replayer stream = %+v, want %+v", got, es)
	}
}

func TestTeePassthrough(t *testing.T) {
	es := sampleEntries()
	rec := NewRecorder(0, 0)
	got := Collect(Tee(NewSliceReader(es), rec))
	if !reflect.DeepEqual(got, es) {
		t.Errorf("tee altered the stream: %+v", got)
	}
	if rec.Len() != len(es) {
		t.Fatalf("tee recorded %d entries, want %d", rec.Len(), len(es))
	}
	if !reflect.DeepEqual(Collect(rec.Replayer()), es) {
		t.Errorf("tee recording does not replay to the original stream")
	}
}

// sliceSink is a Sink that only collects what it is handed.
type sliceSink struct {
	width uint64
	got   []Entry
}

func (s *sliceSink) Append(e Entry)     { s.got = append(s.got, e) }
func (s *sliceSink) TokenWidth() uint64 { return s.width }

// TestTeeModeFollowsSinkTokenWidth pins Tee's choice for any Sink: batch
// reads when the sink tracks no token shadow, entry-at-a-time for REST
// traces, and in both modes every entry reaches the consumer and the sink
// unchanged and in order.
func TestTeeModeFollowsSinkTokenWidth(t *testing.T) {
	es := sampleEntries()
	for _, width := range []uint64{0, 8} {
		sink := &sliceSink{width: width}
		r := Tee(NewSliceReader(es), sink)
		br, batch := r.(BatchReader)
		if batch != (width == 0) {
			t.Fatalf("token width %d: Tee batch mode = %t", width, batch)
		}
		var got []Entry
		if batch {
			buf := make([]Entry, 4)
			for n := br.ReadBatch(buf); n > 0; n = br.ReadBatch(buf) {
				got = append(got, buf[:n]...)
			}
		} else {
			got = Collect(r)
		}
		if !reflect.DeepEqual(got, es) || !reflect.DeepEqual(sink.got, es) {
			t.Errorf("token width %d: consumer got %d entries, sink %d; want %d unchanged", width, len(got), len(sink.got), len(es))
		}
	}
}

func TestRecorderOverflow(t *testing.T) {
	// 3 bytes: the first entry alone takes a site-table row.
	rec := NewRecorder(0, 3)
	es := sampleEntries()
	rec.AppendFrom(NewSliceReader(es))
	if !rec.Overflowed() {
		t.Fatal("limit did not trip")
	}
	if rec.Len() != 0 || rec.Bytes() != 0 {
		t.Errorf("overflowed recorder kept %d entries / %d bytes", rec.Len(), rec.Bytes())
	}
	// Further appends are ignored, not resurrected.
	rec.Append(es[0])
	if rec.Len() != 0 || !rec.Overflowed() {
		t.Error("overflowed recorder accepted a later Append")
	}
	defer func() {
		if recover() == nil {
			t.Error("Replayer on overflowed recorder did not panic")
		}
	}()
	rec.Replayer()
}

func TestRecorderLimitExact(t *testing.T) {
	// A limit of exactly the bytes N entries take must not trip on entry N;
	// one byte less must.
	es := sampleEntries()[:3]
	full := NewRecorder(0, 0)
	full.AppendFrom(NewSliceReader(es))
	size := int(full.Bytes())
	rec := NewRecorder(0, size)
	rec.AppendFrom(NewSliceReader(es))
	if rec.Overflowed() {
		t.Fatalf("a %d-byte limit tripped on a trace of %d bytes", size, size)
	}
	if rec.Len() != 3 || rec.Bytes() != full.Bytes() {
		t.Fatalf("Len = %d, Bytes = %d; want 3 and %d", rec.Len(), rec.Bytes(), size)
	}
	short := NewRecorder(0, size-1)
	short.AppendFrom(NewSliceReader(es))
	if !short.Overflowed() {
		t.Fatalf("a %d-byte limit held a trace of %d bytes", size-1, size)
	}
}

// loopEntries is n entries of a two-site loop: an add, then a taken branch
// back to it.
func loopEntries(n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Seq: uint64(i), PC: 0x1000, Op: isa.OpAdd, Dst: 1, Src1: 1}
		if i%2 == 1 {
			es[i] = Entry{Seq: uint64(i), PC: 0x1004, Op: isa.OpBeq, Src1: 1, Taken: true, Target: 0x1000}
		}
	}
	return es
}

// TestRecorderRunCode pins the run code byte for byte on a one-site loop,
// and on a two-site loop checks that the bytes decode to the whole trace
// after every Append: At and a fresh Replayer, interleaved with the
// captures, read back every entry so far while the open run's count is
// rewritten under them.
func TestRecorderRunCode(t *testing.T) {
	rec := NewRecorder(0, 0)
	for i := 0; i < 200; i++ {
		rec.Append(Entry{Seq: uint64(i), PC: 0x1000, Op: isa.OpAdd})
	}
	// Two entries name their site (the second records it as its own
	// successor), the third is a plain same-site header, and the fourth
	// turns it into a run header whose count the rest raise to 198.
	want := []byte{0x00, 0x00, 0x00, 0x00, hdrRun, 0xc6, 0x01}
	if got := rec.block(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("one-site loop encodes as % x, want % x", got, want)
	}

	es := loopEntries(2*blockEntries + 9)
	rec = NewRecorder(0, 0)
	for i, e := range es {
		rec.Append(e)
		if i < 64 || i%1021 == 0 || i>>blockShift != (i+1)>>blockShift {
			for j := max(0, i-70); j <= i; j++ {
				if got := rec.At(j); got != es[j] {
					t.Fatalf("after %d appends: At(%d) = %+v, want %+v", i+1, j, got, es[j])
				}
			}
			if got := Collect(rec.Replayer()); !reflect.DeepEqual(got, es[:i+1]) {
				t.Fatalf("after %d appends: the replay diverges", i+1)
			}
		}
	}
	if per := float64(rec.Bytes()) / float64(len(es)); per > 0.01 {
		t.Errorf("a steady loop takes %.4f B/entry, want at most 0.01", per)
	}
}

// TestReplayerTokenShadow drives the batch-lookahead shadow through a
// synthetic trace shaped like machine output — user instructions each
// followed by their runtime micro-ops — and checks the mask the timing model
// would observe at every position.
func TestReplayerTokenShadow(t *testing.T) {
	const w = 8 // 8-byte tokens: 8 chunks per 64-byte line
	line := uint64(0x40)
	es := []Entry{
		// Batch 0: a user RTCall that arms chunks 0 and 2 of the line.
		{Op: isa.OpRTCall, Kind: KindUser},
		{Op: isa.OpArm, Kind: KindRuntime, Addr: line + 0*w},
		{Op: isa.OpArm, Kind: KindRuntime, Addr: line + 2*w},
		// Batch 1: plain user instruction, no token traffic.
		{Op: isa.OpAdd, Kind: KindUser},
		// Batch 2: disarms chunk 0; a faulting DISARM of chunk 2 must NOT
		// apply (the machine raised before mutating the tracker).
		{Op: isa.OpRTCall, Kind: KindUser},
		{Op: isa.OpDisarm, Kind: KindRuntime, Addr: line + 0*w},
		{Op: isa.OpDisarm, Kind: KindRuntime, Addr: line + 2*w, Faults: true},
		// Batch 3: end.
		{Op: isa.OpHalt, Kind: KindUser},
	}
	// wantMask[i] is the line's mask observed after yielding entry i: the
	// whole batch's effects land before its first entry is yielded.
	wantMask := []uint8{
		0b101, 0b101, 0b101, // batch 0 already applied at its first entry
		0b101,               // batch 1 leaves it alone
		0b100, 0b100, 0b100, // batch 2: chunk 0 gone, faulting chunk 2 stays
		0b100,
	}
	rec := NewRecorder(w, 0)
	rec.AppendFrom(NewSliceReader(es))
	rp := rec.Replayer()
	if rp.ChunksPerLine() != 8 {
		t.Fatalf("ChunksPerLine = %d, want 8", rp.ChunksPerLine())
	}
	for i := range es {
		if _, ok := rp.Next(); !ok {
			t.Fatalf("stream ended early at %d", i)
		}
		if got := rp.LineTokenMask(line); got != wantMask[i] {
			t.Errorf("after entry %d: LineTokenMask = %#b, want %#b", i, got, wantMask[i])
		}
		// Unrelated lines stay empty; unaligned addresses resolve to the line.
		if got := rp.LineTokenMask(0x1000); got != 0 {
			t.Errorf("after entry %d: unrelated line mask = %#b", i, got)
		}
		if got := rp.LineTokenMask(line + 17); got != wantMask[i] {
			t.Errorf("after entry %d: unaligned lookup mask = %#b, want %#b", i, got, wantMask[i])
		}
	}
	if _, ok := rp.Next(); ok {
		t.Error("stream did not end")
	}
}

// TestRecorderRejectsOddEffect pins the effect index's packing: a
// non-faulting ARM or DISARM in a REST trace is token-aligned, so bit 0 of
// its address holds the arm flag, and an odd address is a caller bug. A
// faulting one, or one in a trace without a token width, is not indexed
// and may sit anywhere.
func TestRecorderRejectsOddEffect(t *testing.T) {
	rec := NewRecorder(8, 0)
	rec.Append(Entry{Op: isa.OpArm, Kind: KindRuntime, Addr: 0x41, Faults: true})
	NewRecorder(0, 0).Append(Entry{Op: isa.OpDisarm, Kind: KindRuntime, Addr: 0x41})
	for _, op := range []isa.Op{isa.OpArm, isa.OpDisarm} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a non-faulting %v at 0x41 did not panic", op)
				}
			}()
			rec.Append(Entry{Op: op, Kind: KindRuntime, Addr: 0x41})
		}()
	}
}

// TestReplayerNoShadow pins the non-REST fast path: width 0 means no armed
// set and an always-zero mask.
func TestReplayerNoShadow(t *testing.T) {
	rec := NewRecorder(0, 0)
	rec.AppendFrom(NewSliceReader(sampleEntries()))
	rp := rec.Replayer()
	if rp.ChunksPerLine() != 0 {
		t.Errorf("ChunksPerLine = %d, want 0", rp.ChunksPerLine())
	}
	for {
		if _, ok := rp.Next(); !ok {
			break
		}
		if rp.LineTokenMask(0xc0c0) != 0 {
			t.Fatal("token shadow active on a width-0 trace")
		}
	}
}

// TestConcurrentReplayers pins the shared-Recorder contract: the encoding is
// read-only after capture, so independent Replayers may stream concurrently,
// next to At callers sharing the Recorder's cursor (run under -race to make
// this meaningful). The trace spans three blocks, so every reader crosses
// block edges.
func TestConcurrentReplayers(t *testing.T) {
	want := synthEntries(synthProgram, 2*blockEntries+77, 8)
	rec := NewRecorder(8, 0)
	rec.AppendFrom(NewSliceReader(want))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if got := Collect(rec.Replayer()); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent replay diverged from the recorded trace")
			}
		}()
		go func(seed int64) {
			defer wg.Done()
			// Two callers walk ascending runs, two jump at random.
			rng := rand.New(rand.NewSource(seed))
			i := rng.Intn(len(want))
			for k := 0; k < 300; k++ {
				if seed%2 == 0 {
					i = rng.Intn(len(want))
				} else {
					i = (i + 1) % len(want)
				}
				if got := rec.At(i); got != want[i] {
					t.Errorf("concurrent At(%d) = %+v, want %+v", i, got, want[i])
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// BenchmarkReplayerNext pins the hot loop's allocation contract: replaying an
// entry must not allocate. The benchmark fails loudly in review if
// allocs/op ever leaves zero.
func BenchmarkReplayerNext(b *testing.B) {
	rec := NewRecorder(8, 0)
	es := make([]Entry, 4096)
	for i := range es {
		switch i % 8 {
		case 0:
			es[i] = Entry{Op: isa.OpRTCall, Kind: KindUser, PC: uint64(i)}
		case 1:
			es[i] = Entry{Op: isa.OpArm, Kind: KindRuntime, Addr: uint64(i) * 8}
		case 3:
			es[i] = Entry{Op: isa.OpLoad, Kind: KindUser, Addr: uint64(i) * 16, Size: 8}
		default:
			es[i] = Entry{Op: isa.OpAdd, Kind: KindUser, PC: uint64(i)}
		}
	}
	rec.AppendFrom(NewSliceReader(es))
	b.ReportAllocs()
	b.ResetTimer()
	rp := rec.Replayer()
	for i := 0; i < b.N; i++ {
		e, ok := rp.Next()
		if !ok {
			b.StopTimer()
			rp = rec.Replayer()
			b.StartTimer()
			continue
		}
		if e.PC == ^uint64(0) {
			b.Fatal("unreachable, defeats dead-code elimination")
		}
	}
}
