package experiment

import (
	"math"
	"testing"
)

// The ablations of DESIGN.md §5, pinned to the values EXPERIMENTS.md
// quotes: full-detection adoption at 30% attackers on the 46-AS
// topology, seed 42, cold start. ablationTolerance absorbs only the
// rounding of the quoted two-decimal figures; any real change to the
// simulator that moves an ablation fails here.
const ablationTolerance = 0.01

func pinned(t *testing.T, what string, got, want float64) {
	t.Helper()
	t.Logf("%s: %.2f%%", what, got)
	if math.Abs(got-want) > ablationTolerance {
		t.Errorf("%s = %.4f%%, want %.2f%% ± %.2f", what, got, want, ablationTolerance)
	}
}

// ablationSweep runs normal BGP and full detection at 30% attackers on
// the 46-AS topology with the ablation's knobs set by ablate.
func ablationSweep(t *testing.T, origins int, ablate func(*SweepConfig)) Point {
	t.Helper()
	topo := paperSet(t).T46
	cfg := SweepConfig{
		Topology:       topo,
		TopologyName:   "46",
		NumOrigins:     origins,
		AttackerCounts: []int{topo.Graph.NumNodes() * 30 / 100},
		Modes: []ModeSpec{
			{Label: "normal", Detection: DetectionOff},
			{Label: "full", Detection: DetectionFull},
		},
		Seed:      PublishedSeed,
		ColdStart: true,
	}
	ablate(&cfg)
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Points[0]
}

// TestAblationForgedSupersetList: the §4.1 forging attacker attaches
// {valid ∪ self} and is still contained, because set inequality
// against the valid origins' list is detected at the first honest
// vantage.
func TestAblationForgedSupersetList(t *testing.T) {
	p := ablationSweep(t, 2, func(c *SweepConfig) { c.ForgeSupersetList = true })
	pinned(t, "full detection, forged superset list", p.MeanFalsePct[1], 1.41)
}

// TestAblationStripMOAS: attackers strip MOAS communities from routes
// they relay (§4.3's community-drop caveat, adversarial form); the
// implicit-list rule restores a checkable claim, so adoption is the
// same as without stripping.
func TestAblationStripMOAS(t *testing.T) {
	p := ablationSweep(t, 2, func(c *SweepConfig) { c.StripMOASInTransit = true })
	pinned(t, "full detection, stripping attackers", p.MeanFalsePct[1], 1.41)
	p = ablationSweep(t, 2, func(*SweepConfig) {})
	pinned(t, "full detection, bare attackers", p.MeanFalsePct[1], 1.41)
}

// TestAblationTransitAttackers places every attacker in a transit AS
// (the paper's §5.1 remark that transit attackers can block more valid
// routes): half the transit ASes attack one stub origin.
func TestAblationTransitAttackers(t *testing.T) {
	topo := paperSet(t).T46
	transits := topo.TransitASes()
	res, err := Run(RunConfig{
		Topology: topo,
		Scenario: Scenario{
			Origins:    topo.StubASes()[:1],
			Attackers:  transits[:len(transits)/2],
			DeploySeed: 1,
		},
		Detection: DetectionFull,
		ColdStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned(t, "full detection, transit attackers", res.Census.FalsePct(), 15.79)
}

// TestAblationValleyFreePolicy reruns the Figure 9 setting under
// Gao-Rexford valley-free export over inferred relationships instead
// of flooding: policy restricts where the valid announcement travels,
// so full-detection adoption nearly triples while normal BGP stays
// near 90%.
func TestAblationValleyFreePolicy(t *testing.T) {
	p := ablationSweep(t, 1, func(c *SweepConfig) { c.ValleyFree = true })
	pinned(t, "full detection, valley-free", p.MeanFalsePct[1], 10.10)
	pinned(t, "normal BGP, valley-free", p.MeanFalsePct[0], 89.49)
	p = ablationSweep(t, 1, func(*SweepConfig) {})
	pinned(t, "full detection, flooding", p.MeanFalsePct[1], 3.64)
}
