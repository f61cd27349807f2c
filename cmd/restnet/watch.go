// restnet -watch ADDR: a zero-touch terminal dashboard for a running
// sweep. It attaches to another restnet process's /otlp/stream feed and
// renders live progress entirely from the exported documents — per-worker
// activity from the span stream, cache hit rates and fault-plane counters
// from the metric snapshots — without the observed process knowing or
// caring. Detaching (ctrl-C) or the sweep finishing leaves the observed run
// untouched; the telemetry differential tests pin that its reports stay
// byte-identical either way.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workerView is the last observed activity of one sweep worker.
type workerView struct {
	Cells   int    // spans seen for this worker
	Last    string // "workload/config" of the most recent span
	Verdict string
	Source  string
	Cycles  uint64
}

// watchState is the dashboard model: everything it knows comes from
// ingesting stream lines, so it can be driven (and tested) without a
// network. Not safe for concurrent use; the watch loop is single-threaded.
type watchState struct {
	Service string
	Version string

	// vals holds every integer metric from the latest snapshot, keyed by
	// semantic name (rest.sweep.live.cells_done, rest.cache.trace.hits, ...).
	vals map[string]uint64

	workers  map[int]*workerView
	verdicts map[string]int // ok / hole / skipped tallies from spans
	sweep    string         // most recent rest.sweep attribute
	spans    int
	started  time.Time // first ingest, for the ETA estimate
	lastErr  string    // most recent hole's status message
}

func newWatchState() *watchState {
	return &watchState{
		vals:     make(map[string]uint64),
		workers:  make(map[int]*workerView),
		verdicts: make(map[string]int),
	}
}

// streamDoc is the decode target for one stream line: exactly one of the two
// top-level keys is present. The field shapes mirror internal/obs/otlp; they
// are re-declared here because the watcher is a wire-format client — it must
// read what is actually on the wire, not share structs with the encoder.
type streamDoc struct {
	ResourceMetrics []struct {
		Resource struct {
			Attributes []watchAttr `json:"attributes"`
		} `json:"resource"`
		ScopeMetrics []struct {
			Metrics []struct {
				Name  string          `json:"name"`
				Sum   *watchNumPoints `json:"sum"`
				Gauge *watchNumPoints `json:"gauge"`
			} `json:"metrics"`
		} `json:"scopeMetrics"`
	} `json:"resourceMetrics"`
	ResourceSpans []struct {
		ScopeSpans []struct {
			Spans []struct {
				Name       string      `json:"name"`
				Attributes []watchAttr `json:"attributes"`
				Status     *struct {
					Code    int    `json:"code"`
					Message string `json:"message"`
				} `json:"status"`
			} `json:"spans"`
		} `json:"scopeSpans"`
	} `json:"resourceSpans"`
}

type watchAttr struct {
	Key   string `json:"key"`
	Value struct {
		StringValue *string `json:"stringValue"`
		IntValue    *string `json:"intValue"`
	} `json:"value"`
}

type watchNumPoints struct {
	DataPoints []struct {
		AsInt string `json:"asInt"`
	} `json:"dataPoints"`
}

func (p *watchNumPoints) value() (uint64, bool) {
	if p == nil || len(p.DataPoints) == 0 {
		return 0, false
	}
	v, err := strconv.ParseUint(p.DataPoints[len(p.DataPoints)-1].AsInt, 10, 64)
	return v, err == nil
}

func attrMap(attrs []watchAttr) (str map[string]string, num map[string]uint64) {
	str, num = make(map[string]string), make(map[string]uint64)
	for _, a := range attrs {
		if a.Value.StringValue != nil {
			str[a.Key] = *a.Value.StringValue
		}
		if a.Value.IntValue != nil {
			if v, err := strconv.ParseUint(*a.Value.IntValue, 10, 64); err == nil {
				num[a.Key] = v
			}
		}
	}
	return str, num
}

// ingest folds one stream line into the model. Unknown shapes are ignored
// (forward compatibility beats strictness in a viewer); a line that is not
// JSON at all is an error so the caller can report a broken feed.
func (w *watchState) ingest(line []byte) error {
	line = []byte(strings.TrimSpace(string(line)))
	if len(line) == 0 {
		return nil
	}
	var doc streamDoc
	if err := json.Unmarshal(line, &doc); err != nil {
		return fmt.Errorf("watch: bad stream line: %w", err)
	}
	for _, rm := range doc.ResourceMetrics {
		str, _ := attrMap(rm.Resource.Attributes)
		if s := str["service.name"]; s != "" {
			w.Service = s
		}
		if v := str["service.version"]; v != "" {
			w.Version = v
		}
		for _, sm := range rm.ScopeMetrics {
			for _, m := range sm.Metrics {
				if v, ok := m.Gauge.value(); ok {
					w.vals[m.Name] = v
				} else if v, ok := m.Sum.value(); ok {
					w.vals[m.Name] = v
				}
			}
		}
	}
	for _, rs := range doc.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				str, num := attrMap(sp.Attributes)
				w.spans++
				if s := str["rest.sweep"]; s != "" {
					w.sweep = s
				}
				verdict := str["rest.cell.verdict"]
				if verdict == "" {
					verdict = "ok"
				}
				w.verdicts[verdict]++
				if verdict == "hole" && sp.Status != nil {
					w.lastErr = sp.Status.Message
				}
				id := int(num["rest.cell.worker"])
				wv := w.workers[id]
				if wv == nil {
					wv = &workerView{}
					w.workers[id] = wv
				}
				wv.Cells++
				wv.Last = str["rest.cell.workload"] + "/" + str["rest.cell.config"]
				wv.Verdict = verdict
				wv.Source = str["rest.cell.source"]
				wv.Cycles = num["rest.cell.cycles"]
			}
		}
	}
	return nil
}

// rate renders "h/(h+m)" as a percentage, or "-" before any lookups.
func rate(hits, misses uint64) string {
	if hits+misses == 0 {
		return "-"
	}
	return fmt.Sprintf("%d%% (%d/%d)", hits*100/(hits+misses), hits, hits+misses)
}

// render draws the dashboard frame. now feeds the ETA; injected for tests.
func (w *watchState) render(now time.Time) string {
	var b strings.Builder
	v := w.vals
	total := v["rest.sweep.live.cells_total"]
	done := v["rest.sweep.live.cells_done"]
	holes := v["rest.sweep.live.cells_holes"]

	title := "restnet watch"
	if w.Service != "" {
		title += " — " + w.Service
		if w.Version != "" {
			title += " (" + w.Version + ")"
		}
	}
	if w.sweep != "" {
		title += " — sweep " + w.sweep
	}
	fmt.Fprintln(&b, title)

	// Progress bar + ETA from the live gauges.
	pct := uint64(0)
	if total > 0 {
		pct = done * 100 / total
	}
	const width = 40
	fill := 0
	if total > 0 {
		fill = int(done * width / total)
		if fill > width {
			fill = width
		}
	}
	bar := strings.Repeat("#", fill) + strings.Repeat(".", width-fill)
	eta := "-"
	if !w.started.IsZero() && done > 0 && total > done {
		per := now.Sub(w.started) / time.Duration(done)
		eta = (per * time.Duration(total-done)).Round(time.Second).String()
	}
	fmt.Fprintf(&b, "  [%s] %d/%d cells (%d%%), %d holes, eta %s\n",
		bar, done, total, pct, holes, eta)

	fmt.Fprintf(&b, "  caches: trace %s  disk-result %s  blocks %s\n",
		rate(v["rest.cache.trace.hits"], v["rest.cache.trace.misses"]),
		rate(v["rest.cache.disk.result_hits"], v["rest.cache.disk.result_misses"]),
		rate(v["rest.sim.blockcache.hits"], v["rest.sim.blockcache.misses"]))

	fmt.Fprintf(&b, "  stream: %d spans seen (ok %d, hole %d, skipped %d); exporter published %d, dropped %d\n",
		w.spans, w.verdicts["ok"], w.verdicts["hole"], w.verdicts["skipped"],
		v["rest.sweep.live.stream_published"], v["rest.sweep.live.stream_dropped"])
	if w.lastErr != "" {
		fmt.Fprintf(&b, "  last hole: %s\n", w.lastErr)
	}

	if len(w.workers) > 0 {
		ids := make([]int, 0, len(w.workers))
		for id := range w.workers {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Fprintln(&b, "  workers:")
		for _, id := range ids {
			wv := w.workers[id]
			src := wv.Source
			if src == "" {
				src = "-"
			}
			fmt.Fprintf(&b, "    w%-2d %4d cells  last %-28s %-7s via %-12s %12d cycles\n",
				id, wv.Cells, wv.Last, wv.Verdict, src, wv.Cycles)
		}
	}
	return b.String()
}

// ansiHome clears the terminal and homes the cursor between frames.
const ansiHome = "\033[H\033[2J"

// runWatch attaches to addr's /otlp/stream and redraws the dashboard on
// every line until the stream closes (sweep process exited) or the reader
// fails. It returns nil on a clean close — the expected way a watch ends.
func runWatch(addr string, out io.Writer) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	url := strings.TrimSuffix(addr, "/") + "/otlp/stream"
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("restnet: -watch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("restnet: -watch %s: HTTP %s", url, resp.Status)
	}

	st := newWatchState()
	st.started = time.Now()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lastDraw := time.Time{}
	for sc.Scan() {
		if err := st.ingest(sc.Bytes()); err != nil {
			fmt.Fprintf(out, "%v\n", err)
			continue
		}
		// Redraw at most ~20 Hz: span bursts from a -j N sweep would
		// otherwise spend more time painting than reading.
		if now := time.Now(); now.Sub(lastDraw) >= 50*time.Millisecond {
			fmt.Fprint(out, ansiHome+st.render(now))
			lastDraw = now
		}
	}
	fmt.Fprint(out, ansiHome+st.render(time.Now()))
	if err := sc.Err(); err != nil && !streamClosed(err) {
		return fmt.Errorf("restnet: -watch: stream read: %w", err)
	}
	fmt.Fprintln(out, "stream closed — sweep finished (or server exited)")
	return nil
}

// streamClosed reports whether a stream read error is the observed process
// going away — the normal end of a watch, not a failure. The server does not
// gracefully terminate the chunked response when its sweep finishes and the
// process exits, so the reader sees an unexpected EOF or a reset rather
// than a clean io.EOF.
func streamClosed(err error) bool {
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	s := err.Error()
	return strings.Contains(s, "connection reset") || strings.Contains(s, "broken pipe")
}
