package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/topology"
	"repro/internal/trace"
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
		"alarms (0 bundles):\n[]\n",
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

// TestRunTraceMatchesEndpoints: each run's timeline and bundles are the
// bytes /debug/trace and /debug/alarms serve for the same recorder.
func TestRunTraceMatchesEndpoints(t *testing.T) {
	const seed = 42
	var out bytes.Buffer
	if err := runTrace(&out, seed, false, 1); err != nil {
		t.Fatal(err)
	}
	runs := traceRuns(t, out.String())
	set, err := topology.BuildPaperTopologies(seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, det := range []experiment.Detection{experiment.DetectionOff, experiment.DetectionFull} {
		cfg, _, err := experiment.TraceHijack(experiment.RunConfig{
			Topology: set.T25, Detection: det, ROACoverage: 1,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		routes := trace.Routes(cfg.Recorder)
		for _, ep := range []struct{ path, printed string }{
			{"/debug/trace", runs[i].timeline},
			{"/debug/alarms", runs[i].alarms},
		} {
			w := httptest.NewRecorder()
			routes[ep.path].ServeHTTP(w, httptest.NewRequest("GET", ep.path, nil))
			if got := w.Body.String(); got != ep.printed {
				t.Errorf("run %d: printed differs from %s:\nprinted %q\nserved  %q", i, ep.path, ep.printed, got)
			}
		}
	}
}

// TestRunTraceROACoverage checks the bundles' classes: with the victim
// prefix covered by ROAs for its valid origin, ROV classes every
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
		var bundles []trace.AlarmBundle
		if err := json.Unmarshal([]byte(traceRuns(t, out.String())[1].alarms), &bundles); err != nil {
			t.Fatalf("coverage %v: decode bundles: %v", tc.coverage, err)
		}
		if len(bundles) == 0 {
			t.Fatalf("coverage %v: full detection captured no alarms", tc.coverage)
		}
		for _, b := range bundles {
			if b.Prefix != "131.179.0.0/16" || b.Verdict != "conflict" {
				t.Errorf("coverage %v: bundle %d: prefix %s, verdict %s", tc.coverage, b.ID, b.Prefix, b.Verdict)
			}
			if got := b.Class == "likely-hijack"; got != tc.hijack {
				t.Errorf("coverage %v: bundle %d class %q, want likely-hijack: %v", tc.coverage, b.ID, b.Class, tc.hijack)
			}
		}
	}
}

// traceRun is one run's JSON sections of a -trace output.
type traceRun struct{ timeline, alarms string }

// traceRuns splits a -trace output into its two runs (normal BGP, then
// full detection).
func traceRuns(t *testing.T, out string) []traceRun {
	t.Helper()
	var runs []traceRun
	for _, sec := range strings.Split(out, "\n== ")[1:] {
		_, rest, ok1 := strings.Cut(sec, "\ntimeline (")
		_, rest, ok2 := strings.Cut(rest, ":\n")
		timeline, rest, ok3 := strings.Cut(rest, "adoption (")
		_, alarms, ok4 := strings.Cut(rest, " bundles):\n")
		if !ok1 || !ok2 || !ok3 || !ok4 {
			t.Fatalf("malformed -trace run:\n%s", sec)
		}
		runs = append(runs, traceRun{timeline, alarms})
	}
	if len(runs) != 2 {
		t.Fatalf("-trace printed %d runs, want 2", len(runs))
	}
	return runs
}
