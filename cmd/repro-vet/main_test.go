package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/analysis/all"
)

// TestFullTreeNeverCrashes is the regression test for the driver's exit
// contract: over the full repository tree repro-vet reports findings
// (exit 1) or a clean pass (exit 0), but never a load/internal error
// (exit 2). The tree currently carries suppressions for every known
// finding, so the expected code is exactly 0 — but the invariant this
// test exists for is "never 2".
func TestFullTreeNeverCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", "../..", "./..."}, &stdout, &stderr)
	if code == 2 {
		t.Fatalf("repro-vet crashed on the full tree (exit 2)\nstderr: %s", stderr.String())
	}
	if code != 0 {
		t.Errorf("full tree not clean (exit %d):\n%s", code, stdout.String())
	}
}

// TestListShowsAllAnalyzers pins the registry size: three analyzers,
// each with a one-line doc.
func TestListShowsAllAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if strings.TrimSpace(line) != "" {
			lines++
		}
	}
	if want := len(all.Analyzers()); lines != want {
		t.Fatalf("-list printed %d analyzers, registry has %d", lines, want)
	}
	if want := 3; lines != want {
		t.Fatalf("-list printed %d analyzers, want %d", lines, want)
	}
}

// TestJSONOutput runs the driver over the testdata/badmod module,
// which carries one guaranteed lockcheck finding and one wireerr
// finding, and checks every output line parses as a finding object
// with the documented fields.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", "testdata/badmod", "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("badmod exit %d, want 1 (findings)\nstderr: %s", code, stderr.String())
	}
	analyzers := map[string]bool{}
	findings := 0
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var f struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("non-JSON output line %q: %v", line, err)
		}
		if f.File == "" || f.Line == 0 || f.Col == 0 || f.Analyzer == "" || f.Message == "" {
			t.Fatalf("finding missing fields: %q", line)
		}
		analyzers[f.Analyzer] = true
		findings++
	}
	if findings < 2 {
		t.Fatalf("got %d findings from badmod, want >= 2", findings)
	}
	for _, want := range []string{"lockcheck", "wireerr"} {
		if !analyzers[want] {
			t.Errorf("no %s finding in badmod output", want)
		}
	}
}

// TestUnknownAnalyzerIsUsageError pins -run validation as a usage error
// (exit 2), distinct from findings.
func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown analyzer: exit %d, want 2", code)
	}
}
