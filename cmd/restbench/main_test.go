package main

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"rest/internal/persist"
)

// TestValidateCacheFlags pins every up-front rejection of a nonsensical
// persistent-cache flag combination (each must fail with a one-line error
// before any sweep work starts) and the mode each valid combination
// resolves to.
func TestValidateCacheFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tt := range []struct {
		name        string
		s           cacheFlagState
		mode        string
		wantChaos   bool
		wantElastic bool // -shard auto resolved to the work-stealing pool
		wantErr     string
	}{
		{name: "no cache flags", s: cacheFlagState{TraceCache: true}, mode: "rw"},
		{name: "dir alone defaults to rw", s: cacheFlagState{Dir: dir, TraceCache: true}, mode: "rw"},
		{name: "explicit ro", s: cacheFlagState{Dir: dir, RO: true, TraceCache: true}, mode: "ro"},
		{name: "no store without the trace cache is fine", s: cacheFlagState{}, mode: "rw"},
		{
			name:    "mode flag without a dir",
			s:       cacheFlagState{RO: true, TraceCache: true},
			wantErr: "pass -cache-dir DIR",
		},
		{
			name:    "cache without the trace cache",
			s:       cacheFlagState{Dir: dir, TraceCache: false},
			wantErr: "rides on the trace cache",
		},
		{
			name:    "read-only over a missing dir",
			s:       cacheFlagState{Dir: dir + "/missing", RO: true, TraceCache: true},
			wantErr: "does not exist",
		},
		{
			name:      "chaos spec parses",
			s:         cacheFlagState{Dir: dir, Chaos: "seed=7,rate=0.5", TraceCache: true},
			mode:      "rw",
			wantChaos: true,
		},
		{
			name:      "chaos with read-only mode",
			s:         cacheFlagState{Dir: dir, RO: true, Chaos: "err=0.1", TraceCache: true},
			mode:      "ro",
			wantChaos: true,
		},
		{
			name:    "chaos without a dir",
			s:       cacheFlagState{Chaos: "rate=1", TraceCache: true},
			wantErr: "pass -cache-dir DIR",
		},
		{
			name:    "malformed chaos spec",
			s:       cacheFlagState{Dir: dir, Chaos: "rate=2.0", TraceCache: true},
			wantErr: "probability in [0,1]",
		},
		{
			name:    "unknown chaos key",
			s:       cacheFlagState{Dir: dir, Chaos: "bogus=1", TraceCache: true},
			wantErr: "unknown",
		},
		{name: "url alone defaults to rw", s: cacheFlagState{URL: "http://localhost:9", TraceCache: true}, mode: "rw"},
		{
			name: "url carries the hardening stack",
			s: cacheFlagState{
				URL: "http://localhost:9", Chaos: "seed=3,rate=0.2", TraceCache: true,
			},
			mode:      "rw",
			wantChaos: true,
		},
		{
			name: "url in read-only mode skips the dir check",
			s:    cacheFlagState{URL: "http://localhost:9", RO: true, TraceCache: true},
			mode: "ro",
		},
		{
			name:    "dir and url together",
			s:       cacheFlagState{Dir: dir, URL: "http://localhost:9", TraceCache: true},
			wantErr: "not both",
		},
		{
			name:    "url without the trace cache",
			s:       cacheFlagState{URL: "http://localhost:9", TraceCache: false},
			wantErr: "rides on the trace cache",
		},
		{
			name:    "static shard slice",
			s:       cacheFlagState{Dir: dir, Shard: "1/2", TraceCache: true},
			wantErr: "-shard auto",
		},
		{
			name:    "malformed shard spec",
			s:       cacheFlagState{Dir: dir, Shard: "Auto", TraceCache: true},
			wantErr: "-shard auto",
		},
		{
			name:        "shard auto over a url store",
			s:           cacheFlagState{URL: "http://localhost:9", Shard: "auto", TraceCache: true},
			mode:        "rw",
			wantElastic: true,
		},
		{
			name:        "shard auto over a dir store",
			s:           cacheFlagState{Dir: dir, Shard: "auto", TraceCache: true},
			mode:        "rw",
			wantElastic: true,
		},
		{
			name:    "shard auto without a store",
			s:       cacheFlagState{Shard: "auto", TraceCache: true},
			wantErr: "read-write mode",
		},
		{
			name:    "shard auto over a read-only store",
			s:       cacheFlagState{Dir: dir, RO: true, Shard: "auto", TraceCache: true},
			wantErr: "read-write mode",
		},
		{
			name:    "stale age without a store",
			s:       cacheFlagState{StaleAge: time.Second, StaleAgeSet: true, TraceCache: true},
			wantErr: "pass -cache-dir DIR",
		},
		{
			name:    "non-positive stale age",
			s:       cacheFlagState{Dir: dir, StaleAge: -time.Second, StaleAgeSet: true, TraceCache: true},
			wantErr: "must be positive",
		},
		{
			name: "stale age with an elastic worker",
			s: cacheFlagState{
				URL: "http://localhost:9", Shard: "auto",
				StaleAge: 5 * time.Second, StaleAgeSet: true, TraceCache: true,
			},
			mode:        "rw",
			wantElastic: true,
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			setup, err := validateCacheFlags(tt.s)
			if tt.wantErr != "" {
				if err == nil {
					t.Fatalf("want error containing %q, got %+v", tt.wantErr, setup)
				}
				if !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("error %q does not contain %q", err, tt.wantErr)
				}
				if strings.ContainsRune(err.Error(), '\n') {
					t.Fatalf("error is not one line: %q", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if setup.Mode != tt.mode {
				t.Fatalf("mode: want %q got %q", tt.mode, setup.Mode)
			}
			if (setup.Chaos != nil) != tt.wantChaos {
				t.Fatalf("chaos spec: want present=%t got %v", tt.wantChaos, setup.Chaos)
			}
			if setup.Elastic != tt.wantElastic {
				t.Fatalf("elastic: want %t got %t", tt.wantElastic, setup.Elastic)
			}
		})
	}
}

// TestValidateCacheServeFlags pins -cache-serve's contract: it turns the
// process into a cache server, needs the directory to serve, and takes no
// flag that would configure a local run.
func TestValidateCacheServeFlags(t *testing.T) {
	cases := []struct {
		name     string
		explicit map[string]bool
		wantErr  string
	}{
		{name: "no cache-serve", explicit: map[string]bool{"fig3": true, "cache-dir": true}},
		{name: "serve with its dir", explicit: map[string]bool{"cache-serve": true, "cache-dir": true}},
		{
			name:     "serve without a dir",
			explicit: map[string]bool{"cache-serve": true},
			wantErr:  "needs -cache-dir",
		},
		{
			name:     "serve with an experiment",
			explicit: map[string]bool{"cache-serve": true, "cache-dir": true, "fig8": true},
			wantErr:  "-fig8",
		},
		{
			name:     "serve with shard and jobs",
			explicit: map[string]bool{"cache-serve": true, "cache-dir": true, "shard": true, "j": true},
			wantErr:  "-j, -shard",
		},
	}
	for _, tt := range cases {
		err := validateModeFlags(tt.explicit, "cache-serve", "serves", "cache-dir")
		if tt.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tt.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", tt.name, err, tt.wantErr)
		}
	}
}

// TestValidateWatchFlags pins -watch's exclusivity: it attaches to another
// process, so any local-run flag alongside it is rejected up front.
func TestValidateWatchFlags(t *testing.T) {
	cases := []struct {
		name     string
		explicit map[string]bool
		wantErr  string
	}{
		{name: "no watch", explicit: map[string]bool{"fig7": true, "j": true}},
		{name: "watch alone", explicit: map[string]bool{"watch": true}},
		{
			name:     "watch with experiment",
			explicit: map[string]bool{"watch": true, "fig8": true},
			wantErr:  "-fig8",
		},
		{
			name:     "watch with serve and jobs",
			explicit: map[string]bool{"watch": true, "serve": true, "j": true},
			wantErr:  "-j, -serve",
		},
	}
	for _, tt := range cases {
		err := validateModeFlags(tt.explicit, "watch", "attaches")
		if tt.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tt.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", tt.name, err, tt.wantErr)
		}
	}
}

// The expressions bench/restperf/parse.go reads restbench's stderr with,
// copied verbatim from that file. A reworded summary line must fail here
// rather than silently zero restperf's harness.trace_replay_ratio or
// persist.result_hit_ratio.
var (
	restperfTraceCacheRe = regexp.MustCompile(`^trace cache: (\d+) replayed, \d+ captured, \d+ bypassed$`)
	restperfDiskCacheRe  = regexp.MustCompile(`^disk cache: trace store \d+ hits / \d+ misses, result store (\d+) hits / \d+ misses`)
)

// TestCacheSummaryMatchesRestperf pins the cache summary lines to the
// benchmark's parser: each line matches its expression and yields the count
// it was built from, and without a store only the trace-cache line prints.
func TestCacheSummaryMatchesRestperf(t *testing.T) {
	got := cacheSummary(17, 5, 3, &persist.Counters{ResultHits: 312, ResultMisses: 4, Stores: 4, Bytes: 644})
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want two lines, got %q", got)
	}
	if m := restperfTraceCacheRe.FindStringSubmatch(lines[0]); m == nil || m[1] != "17" {
		t.Errorf("trace cache line %q: restperf reads %v, want 17 replayed", lines[0], m)
	}
	if m := restperfDiskCacheRe.FindStringSubmatch(lines[1]); m == nil || m[1] != "312" {
		t.Errorf("disk cache line %q: restperf reads %v, want 312 result hits", lines[1], m)
	}
	if got := cacheSummary(0, 9, 9, nil); !restperfTraceCacheRe.MatchString(strings.TrimSuffix(got, "\n")) ||
		strings.Count(got, "\n") != 1 {
		t.Errorf("store-less summary %q: want the trace cache line alone", got)
	}
}
