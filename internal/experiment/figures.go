package experiment

import (
	"fmt"

	"repro/internal/topology"
	"repro/internal/trace"
)

// The published sweep of §5, which EXPERIMENTS.md quotes and the anchors
// gate: topologies and selections from seed 42, attackers from one AS up
// to 35% of each topology, and cold start (Sweeps always sets it).
const (
	PublishedSeed           = 42
	PublishedMaxAttackerPct = 35
)

// Panel is one curve family of a figure: a paper topology ("25", "46"
// or "63", as topology.PaperSet.ByName names them) swept with a number
// of origin ASes.
type Panel struct {
	Topology string
	Origins  int
}

// Figure is one of §5's simulation figures.
type Figure struct {
	// Number is the paper's figure number; moas-sim -experiment
	// Number-8 regenerates it.
	Number int
	// Title heads the figure's moas-report section.
	Title string
	// Panels in output order.
	Panels []Panel
	// Modes run from no detection (first) to full detection (last).
	Modes []ModeSpec
	// Anchors are the paper's claims about the figure, checked over
	// every panel of its published sweep.
	Anchors []Anchor
}

var normalVsFull = []ModeSpec{
	{Label: "Normal BGP", Detection: DetectionOff},
	{Label: "Full MOAS Detection", Detection: DetectionFull},
}

// Figures is the simulation study: Figures 9, 10 and 11 in order.
var Figures = []Figure{
	{
		Number: 9,
		Title:  "effectiveness of the MOAS list",
		Panels: []Panel{{"46", 1}, {"46", 2}},
		Modes:  normalVsFull,
		// Paper: 0.15% at ~4% attackers, 9.8% at 30%, ~5x improvement;
		// EXPERIMENTS.md gates at <=3%, <=12% and >=5x.
		Anchors: figure9Anchors(3, 12, 5),
	},
	{
		Number: 10,
		Title:  "topology-size comparison",
		Panels: []Panel{
			{"25", 1}, {"46", 1}, {"63", 1},
			{"25", 2}, {"46", 2}, {"63", 2},
		},
		Modes: normalVsFull,
		// Paper: 7.8% on the 63-AS topology at ~35% attackers.
		Anchors: figure10Anchors(7.8),
	},
	{
		Number: 11,
		Title:  "partial vs complete deployment",
		Panels: []Panel{{"46", 1}, {"63", 1}},
		Modes: []ModeSpec{
			{Label: "Normal BGP", Detection: DetectionOff},
			{Label: "Half MOAS Detection", Detection: DetectionPartial, DeployFraction: 0.5},
			{Label: "Full MOAS Detection", Detection: DetectionFull},
		},
		// Paper: >63% reduction; EXPERIMENTS.md deviation 2 gates at 35%.
		Anchors: figure11Anchors(0.35),
	},
}

// Sweeps returns the figure's sweeps for the panels with origins origin
// ASes (0 selects every panel), in panel order: each panel's topology
// from set, its attacker counts from one AS up to maxPct percent of it,
// the figure's modes, seed and cold start. It is an error when maxPct
// is not positive or when origins selects no panel. Callers may change
// the returned configs' remaining knobs before running them.
func (f *Figure) Sweeps(set *topology.PaperSet, origins int, seed int64, maxPct float64) ([]SweepConfig, error) {
	if !(maxPct > 0) {
		return nil, fmt.Errorf("experiment: largest attacker percentage %v must be > 0", maxPct)
	}
	var cfgs []SweepConfig
	for _, p := range f.Panels {
		if origins != 0 && p.Origins != origins {
			continue
		}
		topo, err := set.ByName(p.Topology)
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, SweepConfig{
			Topology:       topo,
			TopologyName:   p.Topology,
			NumOrigins:     p.Origins,
			AttackerCounts: AttackerCountsFor(topo, maxPct),
			Modes:          f.Modes,
			Seed:           seed,
			ColdStart:      true,
		})
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("experiment: Figure %d has no panel with %d origin ASes", f.Number, origins)
	}
	return cfgs, nil
}

// SweepAll runs the sweeps in order, typically a figure's, and returns
// their results in the same order.
func SweepAll(cfgs []SweepConfig) ([]*SweepResult, error) {
	results := make([]*SweepResult, len(cfgs))
	for i, cfg := range cfgs {
		res, err := Sweep(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s-AS, %d origin(s): %w", cfg.TopologyName, cfg.NumOrigins, err)
		}
		results[i] = res
	}
	return results, nil
}

// TraceHijack runs the traced-hijack study: the first scenario of the
// paper's scheme with one origin and one attacker, drawn from seed,
// run under cfg with a new flight recorder attached. cfg supplies the
// topology and the detection knobs; TraceHijack sets its Scenario and
// Recorder and returns it with the result. Timestamps are virtual, so
// the same cfg and seed record the same events and bundles.
func TraceHijack(cfg RunConfig, seed int64) (RunConfig, RunResult, error) {
	scens, err := Selections(cfg.Topology, 1, 1, 1, 1, seed)
	if err != nil {
		return cfg, RunResult{}, err
	}
	cfg.Scenario = scens[0]
	cfg.Recorder = trace.NewRecorder(8192, trace.WithoutWallClock())
	res, err := Run(cfg)
	return cfg, res, err
}
