package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary serve as the launcher, as restperf does:
// invoke re-executes its own binary to start each restbench.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == launchArg {
		os.Exit(launch(os.Args[2:]))
	}
	os.Exit(m.Run())
}
