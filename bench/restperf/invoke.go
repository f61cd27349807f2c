package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"syscall"
	"time"
)

// invocation is one measured restbench process.
type invocation struct {
	Wall  time.Duration
	CPU   time.Duration // user + system
	RSSMB float64       // peak resident set size
	// FirstSweepEnd is when, from the process's start, its first sweep's
	// elapsed line reached the launcher (0 if none did).
	FirstSweepEnd time.Duration
	Stdout        string
	Digest        string // SHA-256 of stdout
	Facts         stderrFacts
	// Err is why the invocation failed (non-zero exit, timeout, or stderr
	// the benchmark cannot read); nil on success.
	Err error
}

// setup is the process's set-up: from its start to the start of its first
// sweep, which is when the first elapsed line arrived less the time it
// reports. That covers exec, runtime and package initialisation, flag
// checks, and opening the store and loading its manifest. Rendering and exit
// are left out: they follow the sweeps, and for a process of hundreds of MB
// they take anywhere from 10 to 25 ms.
func (iv invocation) setup() time.Duration {
	if len(iv.Facts.Elapsed) == 0 {
		return iv.Wall
	}
	return iv.FirstSweepEnd - iv.Facts.Elapsed[0].D
}

// launchArg, as restperf's first argument, makes it the launcher.
const launchArg = "-launch-child"

// usage is what the launcher reports about its child.
type usage struct {
	WallNs, CPUNs, MaxRSSKB, FirstSweepNs int64
}

// sweepClock passes the child's stderr on to w and notes when the first
// sweep's elapsed line arrives, as a time since start. restbench writes each
// line in one call, right as the sweep ends.
type sweepClock struct {
	w       io.Writer
	start   time.Time
	pending []byte        // the unfinished line, until the first sweep ends
	first   time.Duration // 0 until the first elapsed line
}

func (c *sweepClock) Write(p []byte) (int, error) {
	if c.first == 0 {
		now := time.Since(c.start)
		c.pending = append(c.pending, p...)
		for {
			i := bytes.IndexByte(c.pending, '\n')
			if i < 0 {
				break
			}
			line := bytes.TrimSpace(c.pending[:i])
			c.pending = c.pending[i+1:]
			if elapsedRe.Match(line) {
				c.first, c.pending = now, nil
				break
			}
		}
	}
	return c.w.Write(p)
}

// launch is restperf's launcher mode. It runs args as a child that writes to
// the launcher's stdout and stderr, and writes the child's wall time and
// rusage to file descriptor 3. restperf starts every restbench through it.
// On Linux a child's peak RSS counts its parent's peak at the moment of
// exec, and restperf's peak includes the decomposition's traces and every
// stdout it checked; the launcher is a fresh process of a few MiB.
// SIGTERM and SIGINT are passed on to the child, and the launcher exits
// once the child has.
func launch(args []string) int {
	cmd := exec.Command(args[0], args[1:]...)
	clock := &sweepClock{w: os.Stderr}
	cmd.Stdout, cmd.Stderr = os.Stdout, clock
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	start := time.Now()
	clock.start = start
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "restperf:", err)
		return 1
	}
	forwarded := make(chan struct{})
	go func() {
		defer close(forwarded)
		for s := range sigs {
			_ = cmd.Process.Signal(s) // fails only once the child has exited
		}
	}()
	err := cmd.Wait()
	wall := time.Since(start)
	signal.Stop(sigs)
	close(sigs)
	<-forwarded
	ps := cmd.ProcessState
	u := usage{WallNs: wall.Nanoseconds(), CPUNs: (ps.UserTime() + ps.SystemTime()).Nanoseconds(), FirstSweepNs: clock.first.Nanoseconds()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.MaxRSSKB = ru.Maxrss // Linux reports KiB
	}
	if jerr := json.NewEncoder(os.NewFile(3, "usage")).Encode(u); jerr != nil {
		fmt.Fprintln(os.Stderr, "restperf:", jerr)
		return 1
	}
	if err != nil {
		return 1
	}
	return 0
}

// invoke runs bin with args through the launcher, stopping it when ctx ends
// or limit passes, and always waits for it to exit. The wall clock spans the
// child's start to its exit; CPU time and peak RSS come from its rusage.
func invoke(ctx context.Context, limit time.Duration, bin string, args ...string) invocation {
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	var iv invocation
	self, err := os.Executable()
	if err != nil {
		iv.Err = err
		return iv
	}
	report, w, err := os.Pipe()
	if err != nil {
		iv.Err = err
		return iv
	}
	defer report.Close()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, self, append([]string{launchArg, bin}, args...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.ExtraFiles = []*os.File{w}
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	err = cmd.Start()
	w.Close()
	if err == nil {
		err = cmd.Wait()
	}
	var u usage
	raw, rerr := io.ReadAll(report)
	if rerr == nil {
		rerr = json.Unmarshal(raw, &u)
	}
	iv.Wall, iv.CPU, iv.FirstSweepEnd = time.Duration(u.WallNs), time.Duration(u.CPUNs), time.Duration(u.FirstSweepNs)
	iv.RSSMB = float64(u.MaxRSSKB) / 1024
	iv.Stdout = stdout.String()
	sum := sha256.Sum256(stdout.Bytes())
	iv.Digest = hex.EncodeToString(sum[:])
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		iv.Err = fmt.Errorf("restbench %v: stopped after %v (10x the recorded median)", args, limit)
	case err != nil:
		iv.Err = fmt.Errorf("restbench %v: %w: %s", args, err, lastLine(stderr.String()))
	case rerr != nil:
		iv.Err = fmt.Errorf("restbench %v: no usage report from the launcher: %w", args, rerr)
	default:
		iv.Facts, iv.Err = parseStderr(stderr.String())
	}
	return iv
}

// lastLine returns the last non-empty line of s, the usual place for an
// error message.
func lastLine(s string) string {
	b := bytes.TrimRight([]byte(s), "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	return string(b)
}
