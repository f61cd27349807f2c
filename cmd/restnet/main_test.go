package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rest/internal/cli"
	"rest/internal/persist"
	"rest/internal/persist/httpstore"
)

// TestFlagsAreRestbenchPlusFour pins restnet's flag table: every flag of
// restbench's, plus -serve, -watch, -cache-serve and -cache-url, and
// nothing else.
func TestFlagsAreRestbenchPlusFour(t *testing.T) {
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
	if want := []string{"cache-serve", "cache-url", "serve", "watch"}; !slices.Equal(extra, want) {
		t.Errorf("restnet adds %q to restbench's flags, want %q", extra, want)
	}
}

// TestCacheURLRunMatchesRestbench drives -cache-url in process against a
// live store server: a cold and a warm restnet run print the bytes a
// store-less restbench prints, and the warm one is served over the wire.
func TestCacheURLRunMatchesRestbench(t *testing.T) {
	t.Parallel()
	db, err := persist.NewDirBackend(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	httpstore.NewServer(db).Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	args := []string{"-fig3", "-scale", "1", "-j", "2"}
	var want, stderr bytes.Buffer
	if code := cli.Run("restbench", args, &want, &stderr, nil); code != 0 {
		t.Fatalf("restbench: exit %d\n%s", code, stderr.String())
	}
	hits := regexp.MustCompile(`result store ([0-9]+) hits`)
	for _, leg := range []string{"cold", "warm"} {
		var stdout bytes.Buffer
		stderr.Reset()
		if code := run(append(args, "-cache-url", srv.URL), &stdout, &stderr); code != 0 {
			t.Fatalf("%s restnet: exit %d\n%s", leg, code, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
			t.Errorf("%s restnet -cache-url printed other bytes than restbench:\n%s\n--- restbench ---\n%s", leg, stdout.String(), want.String())
		}
		m := hits.FindStringSubmatch(stderr.String())
		if m == nil || !strings.Contains(stderr.String(), "http cache: ") || (leg == "warm") != (m[1] != "0") {
			t.Errorf("%s restnet: want the store's summary with %s result hits over http:\n%s",
				leg, map[string]string{"cold": "no", "warm": "some"}[leg], stderr.String())
		}
	}
}
