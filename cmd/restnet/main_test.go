package main

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"rest/internal/cli"
)

// TestFlagsAreRestbenchPlusTwo pins restnet's flag table: every flag of
// restbench's, plus -serve and -watch, and nothing else.
func TestFlagsAreRestbenchPlusTwo(t *testing.T) {
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
	if want := []string{"serve", "watch"}; !slices.Equal(extra, want) {
		t.Errorf("restnet adds %q to restbench's flags, want %q", extra, want)
	}
}
