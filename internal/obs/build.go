package obs

import (
	"fmt"
	"runtime/debug"
)

// Build identifies the binary: module version plus the VCS state baked in
// by the Go toolchain. restbench -version prints it and every OTLP resource
// carries it as service.version, so a long sweep's profile or metrics dump
// can always be tied back to the exact commit that produced it.
type Build struct {
	Module    string `json:"module"`
	Version   string `json:"version"`
	GoVersion string `json:"go"`
	Revision  string `json:"revision,omitempty"`
	Time      string `json:"time,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

// ReadBuild extracts build identity from debug.ReadBuildInfo. Fields the
// toolchain did not stamp (e.g. `go run` without VCS metadata) stay empty.
func ReadBuild() Build {
	b := Build{Version: "(devel)"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.Module = info.Main.Path
	if info.Main.Version != "" {
		b.Version = info.Main.Version
	}
	b.GoVersion = info.GoVersion
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.time":
			b.Time = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b
}

// String renders the build identity as one -version line.
func (b Build) String() string {
	s := fmt.Sprintf("%s %s (%s)", b.Module, b.Version, b.GoVersion)
	if b.Revision != "" {
		rev := b.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		s += " rev " + rev
		if b.Modified {
			s += "+dirty"
		}
	}
	return s
}
