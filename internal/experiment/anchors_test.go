package experiment

import (
	"testing"
)

// figure returns the table entry for a paper figure number.
func figure(t *testing.T, number int) *Figure {
	t.Helper()
	for i := range Figures {
		if Figures[i].Number == number {
			return &Figures[i]
		}
	}
	t.Fatalf("no Figure %d in the table", number)
	return nil
}

// checkPaperAnchors runs every panel of a figure's published sweep and
// reports each anchor the results violate.
func checkPaperAnchors(t *testing.T, number int) {
	fig := figure(t, number)
	cfgs, err := fig.Sweeps(paperSet(t), 0, PublishedSeed, PublishedMaxAttackerPct)
	if err != nil {
		t.Fatal(err)
	}
	sweeps, err := SweepAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range fig.CheckAnchors(sweeps) {
		t.Error(dev)
	}
}

// TestPaperAnchorsFigure9 is the reproduction gate for Figure 9: both
// 46-AS panels must satisfy the paper's shape claims within the
// tolerances recorded in EXPERIMENTS.md.
func TestPaperAnchorsFigure9(t *testing.T) { checkPaperAnchors(t, 9) }

// TestPaperAnchorsFigure10 gates the topology-size claims on the 25-
// and 63-AS panels of each origin count.
func TestPaperAnchorsFigure10(t *testing.T) { checkPaperAnchors(t, 10) }

// TestPaperAnchorsFigure11 gates the partial-deployment claims on both
// panels.
func TestPaperAnchorsFigure11(t *testing.T) { checkPaperAnchors(t, 11) }

// TestAnchorsReportDeviations verifies the anchor machinery itself
// flags violations.
func TestAnchorsReportDeviations(t *testing.T) {
	fig9 := figure(t, 9)
	var broken []*SweepResult
	for _, p := range fig9.Panels {
		broken = append(broken, &SweepResult{
			TopologyName: p.Topology,
			NumOrigins:   p.Origins,
			Modes:        fig9.Modes,
			Points: []Point{{
				NumAttackers: 14,
				AttackerPct:  30,
				MeanFalsePct: []float64{50, 60}, // detection worse!
			}},
		})
	}
	if devs := fig9.CheckAnchors(broken); len(devs) == 0 {
		t.Fatal("broken sweep passed the anchors")
	}

	// Figure 10: the 63-AS topology doing worse than the 25-AS one is
	// flagged for its origin count.
	fig10 := figure(t, 10)
	var inverted []*SweepResult
	for _, p := range fig10.Panels {
		full := 2.0
		if p.Topology == "63" && p.Origins == 2 {
			full = 5
		}
		inverted = append(inverted, &SweepResult{
			TopologyName: p.Topology,
			NumOrigins:   p.Origins,
			Modes:        fig10.Modes,
			Points: []Point{{
				NumAttackers: 8,
				AttackerPct:  34,
				MeanFalsePct: []float64{90, full},
			}},
		})
	}
	devs := fig10.CheckAnchors(inverted)
	if len(devs) != 1 {
		t.Fatalf("inverted topology sizes: deviations %q, want one", devs)
	}
	t.Log(devs[0])
}
