// Package report orchestrates the paper's entire evaluation — the §3
// measurement study and the §5 simulation study — and renders a single
// Markdown document in the shape of EXPERIMENTS.md: per-figure series
// plus the headline statistics, with the paper's reported values beside
// the measured ones. cmd/moas-report is the CLI wrapper.
package report

import (
	"fmt"
	"io"
	"time"

	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/routegen"
	"repro/internal/topology"
)

// Options configures a full evaluation run. Every value is used as
// given: moas-report's flag defaults carry the published ones
// (experiment.PublishedSeed, measure seed 1997,
// experiment.PublishedMaxAttackerPct).
type Options struct {
	// Seed drives topologies and selections.
	Seed int64
	// MeasureSeed drives the synthetic RouteViews series.
	MeasureSeed int64
	// MaxAttackerPct bounds the simulation sweeps; it must be > 0 unless
	// SkipSimulation is set.
	MaxAttackerPct float64
	// SkipMeasurement / SkipSimulation trim the run.
	SkipMeasurement bool
	SkipSimulation  bool
}

// Report holds the full evaluation's results.
type Report struct {
	Options Options
	// Measurement results (nil if skipped).
	Summary *measure.Summary
	// Figures holds the simulation study's sweeps (nil if skipped),
	// indexed like experiment.Figures, each in panel order.
	Figures [][]*experiment.SweepResult
	Elapsed time.Duration
}

// Run executes the configured evaluation.
func Run(opts Options) (*Report, error) {
	start := time.Now()
	rep := &Report{Options: opts}

	if !opts.SkipMeasurement {
		cfg := routegen.DefaultConfig()
		cfg.Seed = opts.MeasureSeed
		gen, err := routegen.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
		analysis, err := measure.Run(gen)
		if err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
		s := analysis.Summarize()
		rep.Summary = &s
	}

	if !opts.SkipSimulation {
		set, err := topology.BuildPaperTopologies(opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
		for i := range experiment.Figures {
			fig := &experiment.Figures[i]
			cfgs, err := fig.Sweeps(set, 0, opts.Seed, opts.MaxAttackerPct)
			if err != nil {
				return nil, fmt.Errorf("report: %w", err)
			}
			sweeps, err := experiment.SweepAll(cfgs)
			if err != nil {
				return nil, fmt.Errorf("report: figure %d: %w", fig.Number, err)
			}
			rep.Figures = append(rep.Figures, sweeps)
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// WriteMarkdown renders the report.
func (r *Report) WriteMarkdown(w io.Writer) error {
	p := &printer{w: w}
	p.printf("# MOAS detection — evaluation report\n\n")
	p.printf("Seeds: simulation %d, measurement %d. Elapsed: %s.\n\n",
		r.Options.Seed, r.Options.MeasureSeed, r.Elapsed.Round(time.Millisecond))

	if r.Summary != nil {
		p.printf("## Measurement study (paper §3, Figures 4-5)\n\n")
		p.printf("| Statistic | Paper | Measured |\n|---|---|---|\n")
		p.printf("| Median daily MOAS cases, 1998 | 683 | %.0f |\n", r.Summary.MedianDailyByYear[1998])
		p.printf("| Median daily MOAS cases, 2001 | 1294 | %.0f |\n", r.Summary.MedianDailyByYear[2001])
		p.printf("| One-day case fraction | 35.9%% | %.1f%% |\n", 100*r.Summary.OneDayFraction)
		p.printf("| Two-origin share | 96.14%% | %.2f%% |\n", 100*r.Summary.TwoOriginFraction)
		p.printf("| Three-origin share | 2.7%% | %.2f%% |\n", 100*r.Summary.ThreeOriginFraction)
		p.printf("| Largest spike | 1998-04-07 | %s (%d cases) |\n\n",
			r.Summary.MaxDailyDate.Format("2006-01-02"), r.Summary.MaxDaily)
	}

	writeFigure := func(title string, sweeps []*experiment.SweepResult) {
		p.printf("## %s\n\n", title)
		for _, res := range sweeps {
			p.printf("### %s-AS topology, %d origin AS(es)\n\n", res.TopologyName, res.NumOrigins)
			p.printf("| attackers | %% of ASes |")
			for _, m := range res.Modes {
				p.printf(" %s |", m.Label)
			}
			p.printf("\n|---|---|")
			for range res.Modes {
				p.printf("---|")
			}
			p.printf("\n")
			for _, pt := range res.Points {
				p.printf("| %d | %.1f%% |", pt.NumAttackers, pt.AttackerPct)
				for mi := range res.Modes {
					stddev := 0.0
					if mi < len(pt.StdDevFalsePct) {
						stddev = pt.StdDevFalsePct[mi]
					}
					p.printf(" %.2f%% ± %.2f |", pt.MeanFalsePct[mi], stddev)
				}
				p.printf("\n")
			}
			p.printf("\n")
		}
	}
	for i, sweeps := range r.Figures {
		fig := &experiment.Figures[i]
		writeFigure(fmt.Sprintf("Figure %d — %s", fig.Number, fig.Title), sweeps)
	}
	return p.err
}

type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}
