package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"rest/internal/obs"
)

// restbench's stderr lines the benchmark reads (cmd/restbench prints them;
// stdout carries only the reports).
var (
	elapsedRe    = regexp.MustCompile(`^(\w+): elapsed (\S+) \(j=\d+\)$`)
	traceCacheRe = regexp.MustCompile(`^trace cache: (\d+) replayed, \d+ captured, \d+ bypassed$`)
	diskCacheRe  = regexp.MustCompile(`^disk cache: trace store \d+ hits / \d+ misses, result store (\d+) hits / \d+ misses`)
)

// stderrFacts is what one restbench invocation reported on stderr.
type stderrFacts struct {
	// Elapsed holds each sweep's wall clock, in the order printed.
	Elapsed []sweepElapsed
	// Replayed counts the cells the in-memory trace cache replayed.
	Replayed int
	// ResultHits counts the cells the persistent result store served (zero
	// without -cache-dir).
	ResultHits int
}

type sweepElapsed struct {
	Sweep string
	D     time.Duration
}

// totalElapsed sums the sweeps' wall clocks.
func (f stderrFacts) totalElapsed() time.Duration {
	var d time.Duration
	for _, e := range f.Elapsed {
		d += e.D
	}
	return d
}

// parseStderr extracts the elapsed, trace-cache and disk-cache lines.
// Unrecognised lines are ignored: restbench prints other diagnostics there.
func parseStderr(s string) (stderrFacts, error) {
	var f stderrFacts
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if m := elapsedRe.FindStringSubmatch(line); m != nil {
			d, err := time.ParseDuration(m[2])
			if err != nil {
				return f, fmt.Errorf("stderr %q: %w", line, err)
			}
			f.Elapsed = append(f.Elapsed, sweepElapsed{m[1], d})
		} else if m := traceCacheRe.FindStringSubmatch(line); m != nil {
			f.Replayed = atoi(m[1])
		} else if m := diskCacheRe.FindStringSubmatch(line); m != nil {
			f.ResultHits = atoi(m[1])
		}
	}
	return f, nil
}

// atoi parses a field the regexps above already matched as \d+.
func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

// csvMatrix is one raw cycle matrix restbench -csv printed: a header of
// config names and one row per benchmark.
type csvMatrix struct {
	Configs   []string
	Workloads []string
	Cycles    map[string]map[string]uint64
}

// parseCSV finds every cycle matrix in a restbench stdout. A matrix starts
// at a "benchmark,<config>,..." header and runs until the first line that is
// not a row of the same width; a hole ("NA") is an error, because a report
// with a hole is a failed invocation.
func parseCSV(stdout string) ([]csvMatrix, error) {
	var out []csvMatrix
	var cur *csvMatrix
	sc := bufio.NewScanner(strings.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ",")
		if fields[0] == "benchmark" && len(fields) > 1 {
			out = append(out, csvMatrix{Configs: fields[1:], Cycles: map[string]map[string]uint64{}})
			cur = &out[len(out)-1]
			continue
		}
		if cur == nil || len(fields) != len(cur.Configs)+1 {
			cur = nil
			continue
		}
		row := make(map[string]uint64, len(cur.Configs))
		for i, v := range fields[1:] {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("csv %s/%s: %q is not a cycle count", fields[0], cur.Configs[i], v)
			}
			row[cur.Configs[i]] = n
		}
		cur.Workloads = append(cur.Workloads, fields[0])
		cur.Cycles[fields[0]] = row
	}
	return out, sc.Err()
}

// cellSlice is one sweep cell of restbench's -trace Catapult file.
type cellSlice struct {
	Sweep, Workload, Config string
	Dur                     time.Duration
	Instrs, Cycles          uint64
	Verdict                 string
}

// parseCatapult validates a restbench -trace file and returns its cell
// slices.
func parseCatapult(raw []byte) ([]cellSlice, error) {
	if err := obs.ValidateCatapult(raw); err != nil {
		return nil, fmt.Errorf("%w", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Cat  string  `json:"cat"`
			Dur  float64 `json:"dur"`
			Args struct {
				Workload string `json:"workload"`
				Config   string `json:"config"`
				Verdict  string `json:"verdict"`
				Instrs   uint64 `json:"instrs"`
				Cycles   uint64 `json:"cycles"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("catapult: %w", err)
	}
	var out []cellSlice
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		out = append(out, cellSlice{
			Sweep: ev.Cat, Workload: ev.Args.Workload, Config: ev.Args.Config,
			Dur:    time.Duration(ev.Dur * float64(time.Microsecond)),
			Instrs: ev.Args.Instrs, Cycles: ev.Args.Cycles, Verdict: ev.Args.Verdict,
		})
	}
	return out, nil
}
