package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rest/internal/cli"
	"rest/internal/obs/otlp"
)

// TestFlagsAreRestbenchPlusThree pins restnet's flag table: every flag of
// restbench's, plus -serve, -watch and -check-otlp, and nothing else.
func TestFlagsAreRestbenchPlusThree(t *testing.T) {
	t.Parallel()
	flags := func(run func(args []string, stdout, stderr io.Writer) int) []string {
		var stderr bytes.Buffer
		if code := run([]string{"-h"}, io.Discard, &stderr); code != 0 {
			t.Fatalf("-h: exit %d\n%s", code, stderr.String())
		}
		var names []string
		for _, line := range strings.Split(stderr.String(), "\n") {
			if f, ok := strings.CutPrefix(line, "  -"); ok {
				names = append(names, strings.Fields(f)[0])
			}
		}
		return names
	}
	bench := flags(func(args []string, stdout, stderr io.Writer) int {
		return cli.Run("restbench", args, stdout, stderr, nil)
	})
	net := flags(run)
	var extra []string
	for _, name := range net {
		if !slices.Contains(bench, name) {
			extra = append(extra, name)
		}
	}
	for _, name := range bench {
		if !slices.Contains(net, name) {
			t.Errorf("restnet lacks restbench's -%s", name)
		}
	}
	if want := []string{"check-otlp", "serve", "watch"}; !slices.Equal(extra, want) {
		t.Errorf("restnet adds %q to restbench's flags, want %q", extra, want)
	}
}

// TestModeDispatch drives -check-otlp through the mode table: like -version
// and -watch it takes no report flag, so given one, in either order, it
// exits 2 with one stderr line naming the strays and prints nothing to
// stdout. Alone, it validates the dump and exits 0.
func TestModeDispatch(t *testing.T) {
	t.Parallel()
	dump := filepath.Join(t.TempDir(), "metrics.json")
	doc := otlp.Line(otlp.EncodeMetrics(nil, otlp.ServiceResource("restnet"), time.Unix(0, 0), time.Unix(1, 0)))
	if err := os.WriteFile(dump, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		args   []string
		code   int
		stdout string // substring of the expected stdout ("" = empty)
		stderr string // the expected single stderr line ("" = empty)
	}{
		{args: []string{"-check-otlp", dump, "-fig7"}, code: 2,
			stderr: "restnet: -check-otlp validates an OTLP dump and takes no other flags; drop -fig7"},
		{args: []string{"-fig7", "-check-otlp", dump}, code: 2,
			stderr: "restnet: -check-otlp validates an OTLP dump and takes no other flags; drop -fig7"},
		{args: []string{"-version", "-check-otlp", dump}, code: 2,
			stderr: "restnet: -version prints the build and takes no other flags; drop -check-otlp"},
		{args: []string{"-check-otlp", dump}, stdout: dump + ": 1 valid OTLP document(s)"},
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
