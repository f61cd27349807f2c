package harness

import (
	"testing"

	"rest/internal/core"
	"rest/internal/prog"
	"rest/internal/trace"
	"rest/internal/workload"
	"rest/internal/world"
)

// The per-cell economics the trace cache banks on, measured in isolation:
// streaming a cell runs the functional simulator and the timing model
// together; replaying runs the timing model over a captured trace; capturing
// is a streamed run plus the recorder tee. A sweep of G timing variants per
// build pays one capture plus G-1 replays instead of G streamed runs, so the
// stream/replay gap (and the modest capture surcharge) set the end-to-end
// saving that BenchmarkFig8CaptureReplay observes.

func benchCaptureEntry(b *testing.B, wl workload.Workload, cfg BinaryConfig) *capture {
	b.Helper()
	w, err := world.Build(world.Spec{
		Pass: cfg.Pass, Mode: cfg.Mode, Width: core.Width(cfg.Pass.TokenWidth),
	}, wl.Build(2))
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder(captureTokenWidth(cfg.Pass), 0)
	_, out := w.RunTimedCapture(rec)
	if out.Err != nil || out.Detected() {
		b.Fatalf("capture failed: %s", out)
	}
	return &capture{rec: rec, outcome: out}
}

func benchStreamVsReplay(b *testing.B, cfg BinaryConfig) {
	wl, err := workload.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("streamed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runStreamed(wl, cfg, 2, CellLimits{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replayed", func(b *testing.B) {
		c := benchCaptureEntry(b, wl, cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runReplay(wl, cfg, CellLimits{}, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCellStreamVsReplay measures the execute-once dividend on the
// out-of-order (Figure 8) machine.
func BenchmarkCellStreamVsReplay(b *testing.B) {
	benchStreamVsReplay(b, BinaryConfig{
		Name: "secure-full", Pass: prog.RESTFull(64), Mode: core.Secure,
	})
}

// BenchmarkCellStreamVsReplayInOrder measures it on the in-order (Figure 3)
// machine, where the cheap timing model makes the functional simulator a
// larger share of a streamed run and replay correspondingly more profitable —
// the reason the sensitivity grid's in-order row replays so well.
func BenchmarkCellStreamVsReplayInOrder(b *testing.B) {
	benchStreamVsReplay(b, BinaryConfig{
		Name: "secure-io", Pass: prog.RESTFull(64), Mode: core.Secure, InOrder: true,
	})
}

// BenchmarkCellCapture prices a capturing cell (streamed run + recorder tee);
// its surcharge over BenchmarkCellStreamVsReplay/streamed is what one cache
// miss costs a sweep.
func BenchmarkCellCapture(b *testing.B) {
	wl, err := workload.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	cfg := BinaryConfig{Name: "secure-full", Pass: prog.RESTFull(64), Mode: core.Secure}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCaptureEntry(b, wl, cfg).rec.Release()
	}
}
