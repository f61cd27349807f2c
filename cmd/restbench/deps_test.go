package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNetFreeClosures is the gate on the network boundary: restbench and
// every package an importer of the evaluation reaches (the harness, the
// store, the OTLP encoders and the root rest package) link none of the
// network stack, while restnet, which carries -serve and -watch, does. It
// reads the import closures `go list` computes for the default build, so it
// is exact and costs no run.
func TestNetFreeClosures(t *testing.T) {
	t.Parallel()
	netFree := []string{"rest/cmd/restbench", "rest/internal/harness", "rest/internal/persist", "rest/internal/obs/otlp", "rest"}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go command is needed to read import closures: %v", err)
	}
	out, err := exec.Command(goTool, append([]string{"list", "-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}"},
		append(netFree, "rest/cmd/restnet")...)...).Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		t.Fatalf("go list: %v\n%s", err, stderr)
	}
	deps := make(map[string]map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		deps[f[0]] = make(map[string]bool, len(f)-1)
		for _, d := range f[1:] {
			deps[f[0]][d] = true
		}
	}
	for _, pkg := range netFree {
		if deps[pkg] == nil {
			t.Fatalf("go list printed no closure for %s:\n%s", pkg, out)
		}
		for _, bad := range []string{"net", "net/http", "crypto/tls", "runtime/cgo"} {
			if deps[pkg][bad] {
				t.Errorf("%s links %s", pkg, bad)
			}
		}
	}
	if !deps["rest/cmd/restnet"]["net/http"] {
		t.Errorf("rest/cmd/restnet does not link net/http: its two flags have lost their server and client")
	}
}
