package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunTraceDeterministic asserts the acceptance property of -trace:
// the same seed produces byte-identical output (all timestamps are
// virtual, no wall clock or map-iteration order leaks in).
func TestRunTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := runTrace(&a, 42, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := runTrace(&b, 42, false, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed produced different -trace output")
	}

	out := a.String()
	for _, want := range []string{
		"== normal BGP (detection off) ==",
		"== full MOAS detection ==",
		"timeline (",
		"adoption (25 nodes):",
		"no MOAS alarms captured",
		"id  virtual     prefix",
		"alarm #0: MOAS conflict",
		"FALSE route via the attacker",
		"rejected 1 forged announcement",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}

	// A different seed picks different actors, so the trace must differ.
	var c bytes.Buffer
	if err := runTrace(&c, 43, false, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("different seeds produced identical output")
	}
}

// TestRunTraceROACoverage checks the alarm table's classes: with the
// victim prefix covered by ROAs for its valid origin, ROV classes every
// full-detection alarm likely-hijack; without ROAs, none.
func TestRunTraceROACoverage(t *testing.T) {
	for _, tc := range []struct {
		coverage float64
		hijack   bool
	}{{1, true}, {0, false}} {
		var out bytes.Buffer
		if err := runTrace(&out, 42, false, tc.coverage); err != nil {
			t.Fatal(err)
		}
		rows := alarmRows(out.String())
		if len(rows) == 0 {
			t.Fatalf("coverage %v: full detection captured no alarms", tc.coverage)
		}
		for _, row := range rows {
			// id, virtual, prefix, verdict, class, node, origin, ...
			f := strings.Fields(row)
			if f[2] != "131.179.0.0/16" || f[3] != "conflict" {
				t.Errorf("coverage %v: alarm row %q", tc.coverage, row)
			}
			if got := f[4] == "likely-hijack"; got != tc.hijack {
				t.Errorf("coverage %v: class %q, want likely-hijack: %v", tc.coverage, f[4], tc.hijack)
			}
		}
	}
}

// alarmRows returns the rows of every alarm table in a -trace output.
func alarmRows(out string) []string {
	var rows []string
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "id  virtual"):
			inTable = true
		case line == "":
			inTable = false
		case inTable:
			rows = append(rows, line)
		}
	}
	return rows
}
