// Command moas-report runs the paper's entire evaluation — the §3
// measurement study and the §5 simulation study — and emits a single
// Markdown report with the measured series beside the paper's reported
// values. It is the one-shot regeneration of EXPERIMENTS.md's data.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/report"
)

func main() {
	var (
		seed        = flag.Int64("seed", experiment.PublishedSeed, "simulation seed")
		measureSeed = flag.Int64("measure-seed", 1997, "measurement seed")
		maxPct      = flag.Float64("max-attacker-pct", experiment.PublishedMaxAttackerPct, "largest attacker percentage")
		skipMeasure = flag.Bool("skip-measurement", false, "skip the §3 measurement study")
		skipSim     = flag.Bool("skip-simulation", false, "skip the §5 simulation study")
		out         = flag.String("o", "", "write the report to a file instead of stdout")
	)
	flag.Parse()
	if err := run(*seed, *measureSeed, *maxPct, *skipMeasure, *skipSim, *out); err != nil {
		fmt.Fprintln(os.Stderr, "moas-report:", err)
		os.Exit(1)
	}
}

func run(seed, measureSeed int64, maxPct float64, skipMeasure, skipSim bool, out string) error {
	rep, err := report.Run(report.Options{
		Seed:            seed,
		MeasureSeed:     measureSeed,
		MaxAttackerPct:  maxPct,
		SkipMeasurement: skipMeasure,
		SkipSimulation:  skipSim,
	})
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return rep.WriteMarkdown(w)
}
