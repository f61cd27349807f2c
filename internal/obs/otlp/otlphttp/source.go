// Package otlphttp serves the OTLP telemetry of package otlp over HTTP:
// a live metrics snapshot endpoint and a streaming feed. Only network
// builds (cmd/restnet -serve) link it, so otlp's encoders, validators and
// Bus stay free of the network stack.
package otlphttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"rest/internal/obs"
	"rest/internal/obs/otlp"
)

// Source is the HTTP export surface: a live metrics snapshot endpoint and a
// streaming feed, both read-only windows onto a running sweep.
//
//	GET /otlp/metrics            one OTLP metrics document (indented JSON)
//	GET /otlp/stream             NDJSON: one OTLP document per line — span
//	                             documents as cells finish, plus a metrics
//	                             document on connect and every Interval
//	GET /otlp/stream?sse=1       the same feed with SSE framing
//	GET /otlp/stream?interval=D  per-connection metrics push period
//
// Every handler reads through Snapshot and the Bus; nothing here can write
// into the sweep, so attaching any number of collectors cannot perturb the
// reports.
type Source struct {
	// Service names the resource (the command, "restnet" in the CLI).
	Service string
	// Snapshot returns the current live metric snapshot (registry names;
	// the encoder translates them to semantic names).
	Snapshot func() []obs.Metric
	// Bus carries the exported span/metrics lines to stream subscribers.
	// Optional: with a nil Bus the stream serves only periodic snapshots.
	Bus *otlp.Bus
	// Start anchors every data point's startTimeUnixNano.
	Start time.Time
	// Now is the export clock (nil = time.Now); injected in tests so
	// encoded documents are byte-stable.
	Now func() time.Time
	// Interval is the default metrics push period on /otlp/stream
	// (0 = 1s). Clients may override per connection with ?interval=.
	Interval time.Duration
	// SubscriberBuffer bounds each stream subscriber's line buffer
	// (0 = otlp.DefaultSubscriberBuffer).
	SubscriberBuffer int
}

func (s *Source) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

func (s *Source) resource() otlp.Resource { return otlp.ServiceResource(s.Service) }

// metricsDoc builds the current snapshot document.
func (s *Source) metricsDoc() *otlp.MetricsDoc {
	var ms []obs.Metric
	if s.Snapshot != nil {
		ms = s.Snapshot()
	}
	return otlp.EncodeMetrics(ms, s.resource(), s.Start, s.now())
}

// Register mounts the export endpoints on mux.
func (s *Source) Register(mux *http.ServeMux) {
	mux.HandleFunc("/otlp/metrics", s.handleMetrics)
	mux.HandleFunc("/otlp/stream", s.handleStream)
}

func (s *Source) handleMetrics(w http.ResponseWriter, r *http.Request) {
	raw, err := json.MarshalIndent(s.metricsDoc(), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(raw, '\n'))
}

// streamInterval resolves the metrics push period for one connection.
func (s *Source) streamInterval(r *http.Request) time.Duration {
	iv := s.Interval
	if iv <= 0 {
		iv = time.Second
	}
	if q := r.URL.Query().Get("interval"); q != "" {
		if d, err := time.ParseDuration(q); err == nil && d > 0 {
			iv = d
		}
	}
	if iv < 100*time.Millisecond {
		iv = 100 * time.Millisecond
	}
	return iv
}

func (s *Source) handleStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "otlp: streaming unsupported by this connection", http.StatusInternalServerError)
		return
	}
	sse := r.URL.Query().Get("sse") != ""
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	writeLine := func(line []byte) error {
		var err error
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n", line) // line keeps its own \n
		} else {
			_, err = w.Write(line)
		}
		flusher.Flush()
		return err
	}

	// Snapshot first, so a freshly attached collector (or restbench -watch)
	// has the full picture before the first delta arrives.
	if err := writeLine(otlp.Line(s.metricsDoc())); err != nil {
		return
	}

	var sub *otlp.Subscriber
	var lines <-chan []byte
	if s.Bus != nil {
		sub = s.Bus.Subscribe(s.SubscriberBuffer)
		defer s.Bus.Unsubscribe(sub)
		lines = sub.C()
	}
	ticker := time.NewTicker(s.streamInterval(r))
	defer ticker.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case line, ok := <-lines:
			if !ok {
				return
			}
			if err := writeLine(line); err != nil {
				return
			}
		case <-ticker.C:
			if err := writeLine(otlp.Line(s.metricsDoc())); err != nil {
				return
			}
		}
	}
}
