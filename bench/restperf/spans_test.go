package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rest/internal/obs"
)

// at builds a span log by hand: each span is [start, end) in milliseconds
// from a fixed origin.
func at(l *spanLog, name, cell string, parent, start, end int) {
	base := time.Unix(1000, 0)
	l.spans = append(l.spans, span{
		Name: name, Cell: cell, Parent: parent,
		Start: base.Add(time.Duration(start) * time.Millisecond),
		End:   base.Add(time.Duration(end) * time.Millisecond),
	})
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	l := newSpanLog()
	at(l, "cpu.ooo", "c", -1, 0, 10)
	at(l, "cache.access", "c", 0, 1, 3)
	at(l, "cache.access", "c", 0, 2, 5) // overlaps its sibling
	at(l, "bpred.resolve", "c", 0, 8, 12)
	at(l, "cpu.inorder", "d", -1, 20, 26)
	all := []spanRange{{0, l.mark()}}
	self := l.selfTimes(all)
	// Children cover [1,5) and [8,10) of the parent: 6ms of its 10.
	if got := self["cpu"]; got != (4+6)*time.Millisecond {
		t.Errorf("cpu self time = %v, want 10ms (4 + 6)", got)
	}
	if got := self["cache"]; got != 5*time.Millisecond {
		t.Errorf("cache self time = %v, want 5ms", got)
	}
	if got := l.selfTimes([]spanRange{{4, 5}})["cpu"]; got != 6*time.Millisecond {
		t.Errorf("cpu self time of span 4 = %v, want 6ms", got)
	}
	// Two disjoint ranges: the parent alone and the second child.
	if got := l.selfTimes([]spanRange{{0, 1}, {2, 3}}); got["cpu"] != 4*time.Millisecond || got["cache"] != 3*time.Millisecond {
		t.Errorf("self times of spans 0 and 2 = %v, want cpu 4ms and cache 3ms", got)
	}
	if got := l.total(all, "cache.access"); got != 5*time.Millisecond {
		t.Errorf("cache.access total = %v, want 5ms", got)
	}
}

func TestSpansNestAndWriteValidCatapult(t *testing.T) {
	l := newSpanLog()
	l.timed("identity", "fig7:lbm/plain", func() {
		l.timed("sim.run", "fig7:lbm/plain", func() {})
		l.timed("cpu.ooo", "fig7:lbm/asan", func() {})
	})
	if l.spans[1].Parent != 0 || l.spans[2].Parent != 0 || l.spans[0].Parent != -1 {
		t.Fatalf("parents = %d %d %d, want -1 0 0", l.spans[0].Parent, l.spans[1].Parent, l.spans[2].Parent)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := l.writeCatapult(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateCatapult(raw); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "cpu.ooo" {
			found = true
			if ev.Args["parent"] != "identity#0" || ev.Args["cell"] != "fig7:lbm/asan" {
				t.Errorf("cpu.ooo args = %v, want parent identity#0 and cell fig7:lbm/asan", ev.Args)
			}
		}
	}
	if !found {
		t.Error("the cpu.ooo span is missing from the file")
	}
}

func TestEndingTheWrongSpanPanics(t *testing.T) {
	l := newSpanLog()
	outer := l.begin("a", "")
	l.begin("b", "")
	defer func() {
		if recover() == nil {
			t.Error("closing the outer span before the inner one did not panic")
		}
	}()
	l.end(outer)
}
