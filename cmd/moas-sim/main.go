// Command moas-sim reproduces the paper's simulation study (§5). It
// regenerates the data series behind:
//
//	-experiment 1: Figure 9  — effectiveness of the MOAS list on the
//	               46-AS topology (normal BGP vs full detection, one and
//	               two origin ASes);
//	-experiment 2: Figure 10 — the same comparison across the 25-, 46-
//	               and 63-AS topologies;
//	-experiment 3: Figure 11 — partial (50%) vs full deployment on the
//	               46- and 63-AS topologies;
//	-experiment 4: internet scale — the same hijack sweep on
//	               preferential-attachment power-law topologies of
//	               -scale ASes (default 10000,30000,70000), the regime
//	               the compact simulation engine exists for.
//
// Experiments 1-3 run the panels of experiment.Figures; -origins N
// keeps the panels with N origin ASes. Each panel prints as one
// experiment.WriteCSV block, in table order, so experiments 1-3 at the
// default flags print experiment's testdata/figures.csv.golden. Each
// row is one X position of the figure: the attacker percentage and,
// per mode, the mean percentage of non-attacker ASes adopting a false
// route over the paper's 15-run scheme.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/topology"
)

func main() {
	var (
		exp     = flag.Int("experiment", 1, "experiment number (1, 2, 3 or 4)")
		seed    = flag.Int64("seed", experiment.PublishedSeed, "master seed (topologies and selections)")
		origins = flag.Int("origins", 0, "origin AS count: keep the figure's panels with that many origins (0 = every panel, as in the paper)")
		maxPct  = flag.Float64("max-attacker-pct", experiment.PublishedMaxAttackerPct, "largest attacker percentage to sweep (experiments 1-3)")
		cold    = flag.Bool("cold-start", true, "announce valid routes and attack simultaneously")
		forge   = flag.Bool("forge-list", false, "attackers forge a superset MOAS list (§4.1)")
		roaCov  = flag.Float64("roa-coverage", 0, "fraction of runs whose victim prefix is covered by ROAs; the false_alarm_pct and alarms_hijack columns count alarms by RPKI/ROV class")
		traced  = flag.Bool("trace", false, "replay one hijack on the 25-AS topology with the flight recorder attached and print the propagation timeline, per-AS adoption, and the forensic alarm bundles")
		scale   = flag.String("scale", "", "comma-separated power-law topology sizes for -experiment 4 (default 10000,30000,70000)")
	)
	flag.Parse()
	maxPctSet := false
	flag.Visit(func(f *flag.Flag) { maxPctSet = maxPctSet || f.Name == "max-attacker-pct" })
	if *exp == 4 && maxPctSet {
		fmt.Fprintln(os.Stderr, "moas-sim: -max-attacker-pct does not apply to -experiment 4, whose attacker counts are fixed at 1, 2 and 4")
		os.Exit(2)
	}
	s := study{
		experiment: *exp,
		origins:    *origins,
		maxPct:     *maxPct,
		sweep: experiment.SweepConfig{
			Seed:              *seed,
			ColdStart:         *cold,
			ForgeSupersetList: *forge,
			ROACoverage:       *roaCov,
		},
	}
	if *scale != "" {
		sizes, err := parseScales(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "moas-sim:", err)
			os.Exit(2)
		}
		s.scales = sizes
	}
	if *roaCov < 0 || *roaCov > 1 {
		fmt.Fprintln(os.Stderr, "moas-sim: -roa-coverage out of [0,1]")
		os.Exit(2)
	}
	var err error
	if *traced {
		err = runTrace(os.Stdout, *seed, *forge, *roaCov)
	} else {
		err = run(os.Stdout, s)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "moas-sim:", err)
		os.Exit(1)
	}
}

// study is one moas-sim invocation of experiments 1-4.
type study struct {
	experiment int
	// origins keeps the panels with that many origin ASes; 0 keeps all.
	origins int
	maxPct  float64
	// scales are experiment 4's power-law topology sizes.
	scales []int
	// sweep carries the knobs every sweep shares: seed, cold start,
	// forging and ROA coverage.
	sweep experiment.SweepConfig
}

func run(w io.Writer, s study) error {
	if s.origins < 0 {
		return fmt.Errorf("-origins %d is negative (0 = every panel)", s.origins)
	}
	switch {
	case s.experiment == 4:
		return runInternet(w, s)
	case s.experiment >= 1 && s.experiment <= len(experiment.Figures):
		return runFigure(w, &experiment.Figures[s.experiment-1], s)
	default:
		return fmt.Errorf("unknown experiment %d (want 1, 2, 3 or 4)", s.experiment)
	}
}

// parseScales parses the -scale list ("10000,30000" -> sizes).
func parseScales(s string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 4 {
			return nil, fmt.Errorf("bad -scale entry %q (want integers >= 4)", f)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// runFigure sweeps the selected panels of one figure and prints each as
// CSV.
func runFigure(w io.Writer, fig *experiment.Figure, s study) error {
	set, err := topology.BuildPaperTopologies(s.sweep.Seed)
	if err != nil {
		return err
	}
	cfgs, err := fig.Sweeps(set, s.origins, s.sweep.Seed, s.maxPct)
	if err != nil {
		return err
	}
	for i := range cfgs {
		cfgs[i].ColdStart = s.sweep.ColdStart
		cfgs[i].ForgeSupersetList = s.sweep.ForgeSupersetList
		cfgs[i].ROACoverage = s.sweep.ROACoverage
	}
	results, err := experiment.SweepAll(cfgs)
	if err != nil {
		return err
	}
	for _, res := range results {
		if err := experiment.WriteCSV(w, res); err != nil {
			return err
		}
	}
	return nil
}

// runInternet sweeps forged-origin hijacks on power-law topologies of
// s.scales ASes under Figure 9's modes. Attacker counts are absolute (a
// handful of rogue ASes, the realistic internet-scale threat) rather
// than percentages, and each point averages 3 scenarios instead of the
// paper's 15 to keep wall-clock sane at 70k nodes.
func runInternet(w io.Writer, s study) error {
	scales := s.scales
	if len(scales) == 0 {
		scales = []int{10_000, 30_000, 70_000}
	}
	originCounts := []int{1, 2}
	if s.origins > 0 {
		originCounts = []int{s.origins}
	}
	for _, n := range scales {
		topo, err := topology.GeneratePowerLaw(topology.DefaultPowerLawParams(n), s.sweep.Seed)
		if err != nil {
			return err
		}
		for _, o := range originCounts {
			cfg := s.sweep
			cfg.Topology = topo
			cfg.TopologyName = fmt.Sprintf("powerlaw-%d", n)
			cfg.NumOrigins = o
			cfg.AttackerCounts = []int{1, 2, 4}
			cfg.Modes = experiment.Figures[0].Modes
			cfg.OriginSets, cfg.AttackerSets = 1, 3
			res, err := experiment.Sweep(cfg)
			if err != nil {
				return err
			}
			if err := experiment.WriteCSV(w, res); err != nil {
				return err
			}
		}
	}
	return nil
}
