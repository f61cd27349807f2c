package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rest/internal/cli"
	"rest/internal/obs"
	"rest/internal/persist"
)

// TestValidateCacheFlags pins every up-front rejection of a nonsensical
// persistent-cache flag combination (each must fail with a one-line error
// before any sweep work starts) and the mode each valid combination
// resolves to.
func TestValidateCacheFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tt := range []struct {
		name    string
		s       cli.CacheFlags
		mode    string
		wantErr string
	}{
		{name: "no cache flags", s: cli.CacheFlags{}, mode: "rw"},
		{name: "dir alone defaults to rw", s: cli.CacheFlags{Dir: dir}, mode: "rw"},
		{name: "explicit ro", s: cli.CacheFlags{Dir: dir, RO: true}, mode: "ro"},
		{
			name:    "mode flag without a dir",
			s:       cli.CacheFlags{RO: true},
			wantErr: "pass -cache-dir DIR",
		},
		{
			name:    "read-only over a missing dir",
			s:       cli.CacheFlags{Dir: dir + "/missing", RO: true},
			wantErr: "does not exist",
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			setup, err := cli.ValidateCacheFlags(tt.s)
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
		})
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
		err := cli.ValidateModeFlags(tt.explicit, "watch", "attaches")
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

// TestModeDispatch drives run's mode table. -version, like restnet's
// -watch and -check-otlp, takes no report flag: given one, in either order,
// it exits 2 with one stderr line naming the strays and prints nothing to
// stdout. Alone, it still does its job and exits 0. -check-otlp is
// restnet's (its TestModeDispatch drives it): restbench answers it, as it
// answers -serve, with one line naming restnet.
func TestModeDispatch(t *testing.T) {
	t.Parallel()
	for _, tt := range []struct {
		args   []string
		code   int
		stdout string // substring of the expected stdout ("" = empty)
		stderr string // the expected single stderr line ("" = empty)
	}{
		{args: []string{"-version", "-fig7"}, code: 2,
			stderr: "restbench: -version prints the build and takes no other flags; drop -fig7"},
		{args: []string{"-fig7", "-scale", "1", "-version"}, code: 2,
			stderr: "restbench: -version prints the build and takes no other flags; drop -fig7, -scale"},
		{args: []string{"-version"}, stdout: obs.ReadBuild().String()},
		{args: []string{"-check-otlp", "metrics.json"}, code: 2,
			stderr: "restbench: -check-otlp needs the OTLP validator, which only restnet links; run restnet with the same flags"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tt.args, &stdout, &stderr)
		if code != tt.code {
			t.Errorf("%q: exit %d, want %d (stderr %q)", tt.args, code, tt.code, stderr.String())
		}
		if got := strings.TrimSuffix(stderr.String(), "\n"); got != tt.stderr {
			t.Errorf("%q: stderr %q, want %q", tt.args, got, tt.stderr)
		}
		if tt.stdout == "" && stdout.Len() > 0 || !strings.Contains(stdout.String(), tt.stdout) {
			t.Errorf("%q: stdout %q, want %q", tt.args, stdout.String(), tt.stdout)
		}
	}
}

// TestStatsKeepGoing drives the report path with a per-cell budget too
// small for either §VI-B cell. Under -keep-going, as for every grid, the
// failed sweep is a stderr notice: no statistics print, the later reports
// still run and the exit is 0. Without it the failure exits 1 before them.
func TestStatsKeepGoing(t *testing.T) {
	t.Parallel()
	args := []string{"-stats", "-table3", "-scale", "1", "-cell-budget", "1000", "-j", "2"}
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-keep-going"), &stdout, &stderr); code != 0 {
		t.Fatalf("-keep-going: exit %d, want 0\n%s", code, stderr.String())
	}
	for _, line := range []string{
		"micro: 2 cells failed, 0 skipped; continuing with holes",
		"some sweep cells failed; reports contain annotated holes (-keep-going)",
	} {
		if !strings.Contains(stderr.String(), line+"\n") {
			t.Errorf("-keep-going: stderr lacks %q:\n%s", line, stderr.String())
		}
	}
	if out := stdout.String(); strings.Contains(out, "§VI-B") || !strings.Contains(out, "Table III") {
		t.Errorf("-keep-going: want Table III and no §VI-B block, got:\n%s", out)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Errorf("without -keep-going: exit %d, want 1", code)
	}
	if strings.Contains(stdout.String(), "Table III") {
		t.Errorf("without -keep-going: the run went on past the failed sweep:\n%s", stdout.String())
	}

	// Under -metrics the failed sweep still files its report, as every
	// grid does: one hole row per failed §VI-B cell.
	metrics := filepath.Join(t.TempDir(), "m.csv")
	stdout.Reset()
	stderr.Reset()
	if code := run(append(args, "-keep-going", "-metrics", metrics), &stdout, &stderr); code != 0 {
		t.Fatalf("-keep-going -metrics: exit %d, want 0\n%s", code, stderr.String())
	}
	if want := "metrics: wrote 1 report(s) to " + metrics + "\n"; !strings.Contains(stderr.String(), want) {
		t.Errorf("-metrics: stderr lacks %q:\n%s", want, stderr.String())
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var holes []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "micro,") && strings.Contains(line, ",hole,hole,reason,") {
			holes = append(holes, strings.SplitN(line, ",hole,", 2)[0])
		}
	}
	if want := []string{"micro,xalanc,secure-full", "micro,xalanc,debug-full"}; !slices.Equal(holes, want) {
		t.Errorf("-metrics: micro hole rows %q, want %q\n%s", holes, want, raw)
	}
}

// TestNetworkFlagsNameRestnet pins restbench's answer to the two flags that
// need the network stack: each exits 2 with one stderr line naming restnet,
// before a store is opened (the read-write -cache-dir is never created) and
// with nothing on stdout.
func TestNetworkFlagsNameRestnet(t *testing.T) {
	t.Parallel()
	for _, flag := range []string{"-serve", "-watch"} {
		dir := filepath.Join(t.TempDir(), "store")
		var stdout, stderr bytes.Buffer
		code := run([]string{"-fig3", "-scale", "1", "-cache-dir", dir, flag, "127.0.0.1:0"}, &stdout, &stderr)
		want := "restbench: " + flag + " needs the network stack, which only restnet links; run restnet with the same flags\n"
		if code != 2 || stderr.String() != want || stdout.Len() > 0 {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 and %q", flag, code, stdout.String(), stderr.String(), want)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: the store was opened before the spelling failed (%v)", flag, err)
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
	got := cli.CacheSummary(17, 5, 3, &persist.Counters{ResultHits: 312, ResultMisses: 4, Stores: 4, Bytes: 644})
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
	if got := cli.CacheSummary(0, 9, 9, nil); !restperfTraceCacheRe.MatchString(strings.TrimSuffix(got, "\n")) ||
		strings.Count(got, "\n") != 1 {
		t.Errorf("store-less summary %q: want the trace cache line alone", got)
	}
}
