package main

import (
	"debug/elf"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goTool returns the path of the go command, which reads import closures
// and builds binaries for the tests below.
func goTool(t *testing.T) string {
	t.Helper()
	path, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go command is needed to read import closures: %v", err)
	}
	return path
}

// runGo runs the go command and returns its stdout, failing the test with
// its stderr.
func runGo(t *testing.T, args ...string) []byte {
	t.Helper()
	out, err := exec.Command(goTool(t), args...).Output()
	if err != nil {
		var stderr []byte
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			stderr = ee.Stderr
		}
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr)
	}
	return out
}

// importClosures returns each package's import closure as `go list`
// computes it for the default build.
func importClosures(t *testing.T, pkgs ...string) map[string]map[string]bool {
	t.Helper()
	out := runGo(t, append([]string{"list", "-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}"}, pkgs...)...)
	deps := make(map[string]map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		deps[f[0]] = make(map[string]bool, len(f)-1)
		for _, d := range f[1:] {
			deps[f[0]][d] = true
		}
	}
	for _, pkg := range pkgs {
		if deps[pkg] == nil {
			t.Fatalf("go list printed no closure for %s:\n%s", pkg, out)
		}
	}
	return deps
}

// TestNetFreeClosures is the gate on the network boundary: restbench and
// every package an importer of the evaluation reaches (the harness, the
// store, the OTLP encoders and the root rest package) link none of the
// network stack, while restnet, which carries -serve and -watch, does. It
// reads the import closures `go list` computes for the default build, so it
// is exact and costs no run.
func TestNetFreeClosures(t *testing.T) {
	t.Parallel()
	netFree := []string{"rest/cmd/restbench", "rest/internal/harness", "rest/internal/persist", "rest/internal/obs/otlp", "rest"}
	deps := importClosures(t, append(netFree, "rest/cmd/restnet")...)
	for _, pkg := range netFree {
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

// TestRestbenchLinks is the gate on what restbench links. A warm sweep maps
// the whole binary, and every page of text, rodata and pclntab it maps is
// resident within milliseconds of the start, so an image byte is an RSS
// byte. The OTLP code is restnet's alone, and the JSON that restbench
// writes (timing identities, the -trace file) is spelled by hand, so
// neither the otlp package nor encoding/json's encoder or decoder may reach
// the binary. The shared command line must not even import otlp. It builds
// restbench and reads its ELF symbol table, so it is exact.
func TestRestbenchLinks(t *testing.T) {
	t.Parallel()
	const otlpPkg = "rest/internal/obs/otlp"
	deps := importClosures(t, "rest/internal/cli", "rest/cmd/restbench")
	for _, pkg := range []string{"rest/internal/cli", "rest/cmd/restbench"} {
		if deps[pkg][otlpPkg] {
			t.Errorf("%s imports %s", pkg, otlpPkg)
		}
	}

	bin := filepath.Join(t.TempDir(), "restbench")
	runGo(t, "build", "-o", bin, "rest/cmd/restbench")
	f, err := elf.Open(bin)
	var ferr *elf.FormatError
	if errors.As(err, &ferr) {
		t.Skipf("restbench is not an ELF binary on this platform: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	syms, err := f.Symbols()
	if err != nil {
		t.Fatalf("reading restbench's symbol table: %v", err)
	}
	banned := func(name string) bool {
		switch {
		case strings.Contains(name, otlpPkg):
			return true
		case name == "encoding/json.Marshal", name == "encoding/json.MarshalIndent", name == "encoding/json.Unmarshal":
			return true
		}
		return strings.HasPrefix(name, "encoding/json.(*encodeState).") ||
			strings.HasPrefix(name, "encoding/json.(*decodeState).")
	}
	var bad []string
	for _, s := range syms {
		if banned(s.Name) {
			bad = append(bad, s.Name)
		}
	}
	if len(bad) > 0 {
		t.Errorf("restbench links %d symbols it must not, among them:\n%s", len(bad), strings.Join(bad[:min(len(bad), 20)], "\n"))
	}
	if len(syms) < 1000 {
		t.Errorf("restbench's symbol table holds %d symbols: too few to say what it links", len(syms))
	}
}
