package trace_test

import (
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"rest/internal/core"
	"rest/internal/isa"
	"rest/internal/prog"
	"rest/internal/trace"
	"rest/internal/workload"
	"rest/internal/world"
)

// builds are the two captures per workload the compactness gate covers: the
// plain build, and secure-full, whose ARM/DISARM micro-ops and allocator
// runtime make the most varied traces.
var builds = []struct {
	name string
	pass prog.PassConfig
	mode core.Mode
	// width is the token shadow the capture tracks (0 for non-REST builds).
	width uint64
}{
	{"plain", prog.Plain(), core.Secure, 0},
	{"secure-full", prog.RESTFull(64), core.Secure, 64},
}

// sinks tees one capture into several sinks.
type sinks []trace.Sink

func (s sinks) Append(e trace.Entry) {
	for _, k := range s {
		k.Append(e)
	}
}
func (s sinks) TokenWidth() uint64 { return s[0].TokenWidth() }

// entries is a Sink that keeps every entry.
type entries struct {
	width uint64
	es    []trace.Entry
}

func (s *entries) Append(e trace.Entry) { s.es = append(s.es, e) }
func (s *entries) TokenWidth() uint64   { return s.width }

// capture runs wl at scale 1 under the build, recording its trace into rec
// and any further sinks.
func capture(tb testing.TB, wl workload.Workload, pass prog.PassConfig, mode core.Mode, rec *trace.Recorder, more ...trace.Sink) {
	tb.Helper()
	w, err := world.Build(world.Spec{Pass: pass, Mode: mode, Width: core.Width(pass.TokenWidth)}, wl.Build(1))
	if err != nil {
		tb.Fatal(err)
	}
	_, out := w.RunTimedCapture(append(sinks{rec}, more...))
	if out.Err != nil || out.Detected() {
		tb.Fatalf("%s: capture failed: %s", wl.Name, out)
	}
}

// steady are the workloads whose captures are almost all steady loops, so
// the run code carries nearly every entry.
var steady = map[string]bool{"lbm": true, "libquantum": true, "namd": true, "soplex": true}

// TestRecorderCompactness is the encoding's deterministic size gate: every
// workload's plain and secure-full capture at scale 1 occupies at most 0.75
// bytes per entry, site table and effect index included, and at most 0.05
// for the steady workloads; each replays bit-exactly to the stream the
// machine produced. The log gives each capture's share of entries inside
// runs, the workload property the size rests on.
func TestRecorderCompactness(t *testing.T) {
	t.Parallel()
	for _, wl := range workload.All() {
		for _, b := range builds {
			wl, b := wl, b
			t.Run(wl.Name+"/"+b.name, func(t *testing.T) {
				t.Parallel()
				rec := trace.NewRecorder(b.width, 0)
				live := &entries{width: b.width}
				capture(t, wl, b.pass, b.mode, rec, live)
				n := uint64(rec.Len())
				per := float64(rec.Bytes()) / float64(n)
				t.Logf("%d entries, %d bytes: %.3f B/entry, %.1f%% of entries in runs", n, rec.Bytes(), per, 100*trace.RunShare(rec))
				bound := 0.75
				if steady[wl.Name] {
					bound = 0.05
				}
				if n == 0 || per > bound {
					t.Errorf("%d bytes for %d entries, want at most %.2f per entry", rec.Bytes(), n, bound)
				}
				if !slices.Equal(trace.Collect(rec.Replayer()), live.es) {
					t.Errorf("replay diverges from the captured stream")
				}
			})
		}
	}
}

// TestRecorderBytesCountsEffectIndex pins what Bytes counts for a REST
// capture, exactly: the encoded entries, 16 bytes a site-table row, and
// the effect index, 8 bytes an effect (a non-faulting ARM or DISARM) and 8
// an effect-carrying batch. The effects and batches are counted from the
// machine's own stream and the encoded bytes from the serialized form, so
// none of the three comes from the Recorder's bookkeeping.
func TestRecorderBytesCountsEffectIndex(t *testing.T) {
	for _, name := range []string{"gobmk", "xalanc"} {
		wl, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(64, 0)
		live := &entries{width: 64}
		capture(t, wl, prog.RESTFull(64), core.Secure, rec, live)
		effects, batches := 0, 0
		batch, indexed := -1, -1
		for i, e := range live.es {
			if e.Kind == trace.KindUser {
				batch = i
			}
			if !e.Faults && (e.Op == isa.OpArm || e.Op == isa.OpDisarm) {
				effects++
				if batch != indexed {
					batches, indexed = batches+1, batch
				}
			}
		}
		if effects == 0 {
			t.Fatalf("%s: the secure-full capture holds no ARM or DISARM", name)
		}
		// The serialized form frames the encoding: a uvarint site count,
		// 14-byte site rows, and a uvarint length before each block.
		enc := rec.AppendEncoding(nil)
		sites, n := binary.Uvarint(enc)
		off, encoded := n+int(sites)*14, 0
		for off < len(enc) {
			b, n := binary.Uvarint(enc[off:])
			off += n + int(b)
			encoded += int(b)
		}
		want := uint64(encoded + int(sites)*16 + effects*8 + batches*8)
		t.Logf("%s: %d B encoded, %d sites, %d effects in %d batches: %d B", name, encoded, sites, effects, batches, want)
		if rec.Bytes() != want {
			t.Errorf("%s: Bytes = %d, want %d", name, rec.Bytes(), want)
		}
	}
}

// BenchmarkReplayerReadBatch prices replay decoding on a real trace (lbm,
// secure-full, scale 1), drained in the timing model's 256-entry batches.
// ns/entry is the decode cost; allocs/entry stays at zero because a
// Replayer allocates only when created and while its token shadow grows,
// never per entry.
func BenchmarkReplayerReadBatch(b *testing.B) {
	wl, err := workload.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	cfg := builds[1]
	rec := trace.NewRecorder(cfg.width, 0)
	capture(b, wl, cfg.pass, cfg.mode, rec)
	var buf [256]trace.Entry
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	drained := 0
	for i := 0; i < b.N; i++ {
		rp := rec.Replayer()
		for n := rp.ReadBatch(buf[:]); n > 0; n = rp.ReadBatch(buf[:]) {
			drained += n
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(drained), "ns/entry")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(drained), "allocs/entry")
}
