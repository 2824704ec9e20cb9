package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiment"
)

func TestParseScales(t *testing.T) {
	sizes, err := parseScales(" 10000, 30000 ,70000")
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 10000 || sizes[2] != 70000 {
		t.Errorf("sizes = %v", sizes)
	}
	for _, bad := range []string{"", "abc", "10,-3", "2"} {
		if _, err := parseScales(bad); err == nil {
			t.Errorf("parseScales(%q) accepted", bad)
		}
	}
}

// small is a quick study: a 6% attacker sweep of one experiment.
func small(exp, origins int) study {
	return study{
		experiment: exp,
		origins:    origins,
		maxPct:     6,
		sweep:      experiment.SweepConfig{Seed: 42, ColdStart: true},
	}
}

func TestRunExperiments(t *testing.T) {
	for exp := 1; exp <= 3; exp++ {
		if err := run(io.Discard, small(exp, 1)); err != nil {
			t.Fatalf("experiment %d: %v", exp, err)
		}
	}
	if err := run(io.Discard, small(9, 1)); err == nil {
		t.Error("unknown experiment accepted")
	}
	internet := small(4, 2)
	internet.scales = []int{150, 300}
	if err := run(io.Discard, internet); err != nil {
		t.Fatalf("experiment 4: %v", err)
	}
}

// TestMain runs the command itself when the test binary is re-executed
// with MOAS_SIM_MAIN set, so a test can check main's exit status.
func TestMain(m *testing.M) {
	if os.Getenv("MOAS_SIM_MAIN") != "" {
		os.Args = append([]string{"moas-sim"}, strings.Fields(os.Getenv("MOAS_SIM_MAIN"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestExperimentsPrintFiguresGolden: experiments 1, 2 and 3 at the
// default flags print, one after another, exactly the committed record
// of Figures 9-11 that experiment's TestFiguresGolden pins.
func TestExperimentsPrintFiguresGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiment", "testdata", "figures.csv.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for exp := 1; exp <= 3; exp++ {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "MOAS_SIM_MAIN=-experiment "+strconv.Itoa(exp))
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("-experiment %d: %v", exp, err)
		}
		got = append(got, out...)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-experiment 1, 2 and 3 printed:\n%s\nwant figures.csv.golden:\n%s", got, want)
	}
}

// TestExperiment4RejectsMaxAttackerPct: experiment 4 sweeps fixed
// attacker counts, so any -max-attacker-pct with it is a usage error
// (exit 2) naming the flag, not a value silently ignored.
func TestExperiment4RejectsMaxAttackerPct(t *testing.T) {
	for _, pct := range []string{"-5", "0", "35"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "MOAS_SIM_MAIN=-experiment 4 -scale 150 -max-attacker-pct "+pct)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-max-attacker-pct") {
			t.Errorf("-experiment 4 -max-attacker-pct %s: err %v, output:\n%s\nwant exit 2 naming the flag", pct, err, out)
		}
	}
}

// TestRunRejectsNonPositiveMaxPct: a -max-attacker-pct that is not > 0
// selects no attacker count, so the run is an error rather than a
// one-attacker sweep.
func TestRunRejectsNonPositiveMaxPct(t *testing.T) {
	for _, pct := range []float64{-5, 0, math.NaN()} {
		for exp := 1; exp <= 3; exp++ {
			s := small(exp, 0)
			s.maxPct = pct
			var out strings.Builder
			if err := run(&out, s); err == nil {
				t.Errorf("-experiment %d -max-attacker-pct %v accepted; printed:\n%s", exp, pct, out.String())
			}
		}
	}
}

// TestRunOriginsSelectsPanels: -origins keeps the figure's panels with
// that many origin ASes, and is an error when negative or when the
// figure has no such panel (Figure 11 has only one-origin panels).
func TestRunOriginsSelectsPanels(t *testing.T) {
	for _, tc := range []struct {
		exp, origins int
		panels       []string // topology/origins of each CSV block
	}{
		{1, 0, []string{"46/1", "46/2"}},
		{1, 2, []string{"46/2"}},
		{2, 1, []string{"25/1", "46/1", "63/1"}},
		{3, 0, []string{"46/1", "63/1"}},
		{3, 1, []string{"46/1", "63/1"}},
	} {
		var out strings.Builder
		if err := run(&out, small(tc.exp, tc.origins)); err != nil {
			t.Fatalf("-experiment %d -origins %d: %v", tc.exp, tc.origins, err)
		}
		rows, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for i := 1; i < len(rows); i++ {
			if rows[i-1][0] == "topology" {
				got = append(got, rows[i][0]+"/"+rows[i][1])
			}
		}
		if !reflect.DeepEqual(got, tc.panels) {
			t.Errorf("-experiment %d -origins %d: panels %q, want %q", tc.exp, tc.origins, got, tc.panels)
		}
	}
	for _, tc := range []struct{ exp, origins int }{{1, -1}, {4, -1}, {3, 2}, {1, 3}} {
		if err := run(io.Discard, small(tc.exp, tc.origins)); err == nil {
			t.Errorf("-experiment %d -origins %d accepted", tc.exp, tc.origins)
		}
	}
}
