package report

import (
	"strings"
	"testing"

	"repro/internal/experiment"
)

func TestRunSimulationOnly(t *testing.T) {
	rep, err := Run(Options{
		Seed:            42,
		MaxAttackerPct:  10,
		SkipMeasurement: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary != nil {
		t.Error("measurement ran despite skip")
	}
	// One sweep per panel of every figure in the table, in panel order.
	if len(rep.Figures) != len(experiment.Figures) {
		t.Fatalf("figures: %d, want %d", len(rep.Figures), len(experiment.Figures))
	}
	for i, sweeps := range rep.Figures {
		fig := &experiment.Figures[i]
		if len(sweeps) != len(fig.Panels) {
			t.Fatalf("Figure %d: %d sweeps, want %d", fig.Number, len(sweeps), len(fig.Panels))
		}
		for j, res := range sweeps {
			if p := fig.Panels[j]; res.TopologyName != p.Topology || res.NumOrigins != p.Origins {
				t.Errorf("Figure %d sweep %d is %s-AS/%d, want %+v", fig.Number, j, res.TopologyName, res.NumOrigins, p)
			}
			// Detection must beat normal BGP at every rendered point.
			for _, pt := range res.Points {
				if pt.MeanFalsePct[len(res.Modes)-1] > pt.MeanFalsePct[0] {
					t.Errorf("Figure %d: detection worse than normal at %d attackers", fig.Number, pt.NumAttackers)
				}
			}
		}
	}

	var sb strings.Builder
	if err := rep.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	md := sb.String()
	for _, want := range []string{
		"# MOAS detection",
		"Figure 9",
		"Figure 10",
		"Figure 11",
		"46-AS topology",
		"### 63-AS topology, 2 origin AS(es)",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	if strings.Contains(md, "Measurement study") {
		t.Error("markdown contains the skipped measurement section")
	}
}

func TestRunMeasurementOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1279-day series; skipped with -short")
	}
	rep, err := Run(Options{MeasureSeed: 1997, SkipSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary == nil {
		t.Fatal("no measurement summary")
	}
	var sb strings.Builder
	if err := rep.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Measurement study") {
		t.Error("markdown missing the measurement section")
	}
	if strings.Contains(sb.String(), "Figure 9") {
		t.Error("markdown contains skipped simulation sections")
	}
}

// TestRunTakesZeroAsGiven: a zero option is a value, not a request for
// the published one. A 0% sweep selects no attacker count and fails,
// as it does in moas-sim, and seed 0 runs seed 0.
func TestRunTakesZeroAsGiven(t *testing.T) {
	if _, err := Run(Options{Seed: 42, SkipMeasurement: true}); err == nil || !strings.Contains(err.Error(), "must be > 0") {
		t.Errorf("MaxAttackerPct 0: err %v, want the sweep's > 0 error", err)
	}
	rep, err := Run(Options{Seed: 0, MaxAttackerPct: 5, SkipMeasurement: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Options.Seed != 0 {
		t.Errorf("Seed 0 ran seed %d", rep.Options.Seed)
	}
}
