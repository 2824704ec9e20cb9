// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus microbenchmarks of the hot paths. Each figure bench
// reports the reproduced quantities through b.ReportMetric, so
// `go test -bench=.` prints the paper-shaped numbers alongside the
// timing:
//
//	Figure 4/5 + §3 stats:  BenchmarkFigure4DailyMOASCounts,
//	                        BenchmarkFigure5DurationHistogram
//	Figure 9:               BenchmarkFigure9Effectiveness
//	Figure 10:              BenchmarkFigure10TopologySize
//	Figure 11:              BenchmarkFigure11PartialDeployment
//
// EXPERIMENTS.md records the measured values against the paper's.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/rib"
	"repro/internal/routegen"
	"repro/internal/topology"
	"repro/internal/wire"
)

var (
	benchTopoOnce sync.Once
	benchTopoSet  *topology.PaperSet
	benchTopoErr  error
)

func benchTopologies(b *testing.B) *topology.PaperSet {
	b.Helper()
	benchTopoOnce.Do(func() {
		benchTopoSet, benchTopoErr = topology.BuildPaperTopologies(experiment.PublishedSeed)
	})
	if benchTopoErr != nil {
		b.Fatal(benchTopoErr)
	}
	return benchTopoSet
}

// BenchmarkFigure4DailyMOASCounts runs the §3.1 measurement pipeline
// over the full 1279-day synthetic RouteViews series and reports the
// Figure 4 headline numbers (daily medians by year, spike height).
func BenchmarkFigure4DailyMOASCounts(b *testing.B) {
	var summary measure.Summary
	for i := 0; i < b.N; i++ {
		g, err := routegen.New(routegen.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		a, err := measure.Run(g)
		if err != nil {
			b.Fatal(err)
		}
		summary = a.Summarize()
	}
	b.ReportMetric(summary.MedianDailyByYear[1998], "median-1998")
	b.ReportMetric(summary.MedianDailyByYear[2001], "median-2001")
	b.ReportMetric(float64(summary.MaxDaily), "max-daily")
}

// BenchmarkFigure5DurationHistogram reports the Figure 5 shape: the
// one-day fraction and the total distinct MOAS cases.
func BenchmarkFigure5DurationHistogram(b *testing.B) {
	g, err := routegen.New(routegen.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	a, err := measure.Run(g)
	if err != nil {
		b.Fatal(err)
	}
	var oneDay, total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := a.DurationHistogram()
		oneDay, total = h.Count(1), h.Total()
	}
	b.ReportMetric(float64(total), "total-cases")
	b.ReportMetric(100*float64(oneDay)/float64(total), "one-day-%")
}

// benchFigure sweeps every panel of one §5 figure as published (the
// experiment.Figures table) and reports, per panel and mode, the
// adoption at the largest attacker count. fresh builds a new simulated
// network per run (the pre-pooling behaviour) instead of drawing one
// from the per-topology pool.
func benchFigure(b *testing.B, number int, fresh bool) {
	fig := &experiment.Figures[number-9]
	cfgs, err := fig.Sweeps(benchTopologies(b), 0,
		experiment.PublishedSeed, experiment.PublishedMaxAttackerPct)
	if err != nil {
		b.Fatal(err)
	}
	for i := range cfgs {
		cfgs[i].FreshNetworks = fresh
	}
	b.ResetTimer()
	var results []*experiment.SweepResult
	for i := 0; i < b.N; i++ {
		if results, err = experiment.SweepAll(cfgs); err != nil {
			b.Fatal(err)
		}
	}
	for _, res := range results {
		last := res.Points[len(res.Points)-1]
		for mi, m := range res.Modes {
			b.ReportMetric(last.MeanFalsePct[mi],
				fmt.Sprintf("%s@max-%sAS-%do", m.Detection, res.TopologyName, res.NumOrigins))
		}
	}
}

// BenchmarkFigure9Effectiveness regenerates Figure 9: normal BGP vs
// full MOAS detection on the 46-AS topology, one and two origin ASes.
func BenchmarkFigure9Effectiveness(b *testing.B) { benchFigure(b, 9, false) }

// BenchmarkFigure9EffectivenessBaseline is the same sweep with network
// pooling disabled: every simulation run pays full network
// construction, as before the Reset/pool path existed.
func BenchmarkFigure9EffectivenessBaseline(b *testing.B) { benchFigure(b, 9, true) }

// BenchmarkFigure10TopologySize regenerates Figure 10: the 25/46/63-AS
// comparison (the paper's "larger topologies are more robust" claim).
func BenchmarkFigure10TopologySize(b *testing.B) { benchFigure(b, 10, false) }

// BenchmarkFigure10TopologySizeBaseline disables network pooling.
func BenchmarkFigure10TopologySizeBaseline(b *testing.B) { benchFigure(b, 10, true) }

// BenchmarkFigure11PartialDeployment regenerates Figure 11: 50% vs
// 100% deployment on the 46- and 63-AS topologies.
func BenchmarkFigure11PartialDeployment(b *testing.B) { benchFigure(b, 11, false) }

// BenchmarkFigure11PartialDeploymentBaseline disables network pooling.
func BenchmarkFigure11PartialDeploymentBaseline(b *testing.B) { benchFigure(b, 11, true) }

// Microbenchmarks of the hot paths.

func benchUpdate() *wire.Update {
	return &wire.Update{
		Attrs: wire.PathAttrs{
			HasOrigin:  true,
			HasNextHop: true,
			NextHop:    0x0a000001,
			ASPath:     astypes.NewSeqPath(701, 1239, 3561, 4),
			Communities: core.NewList(4, 226).
				Communities(),
		},
		NLRI: []astypes.Prefix{astypes.MustPrefix(0x83b30000, 16)},
	}
}

func BenchmarkWireEncodeUpdate(b *testing.B) {
	u := benchUpdate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Encode(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeUpdate(b *testing.B) {
	buf, err := wire.Encode(benchUpdate())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckerConsistent(b *testing.B) {
	c := core.NewChecker()
	list := core.NewList(4, 226)
	ann := core.Announcement{
		Prefix:      astypes.MustPrefix(0x83b30000, 16),
		Path:        astypes.NewSeqPath(701, 4),
		Communities: list.Communities(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Check(ann)
	}
}

func BenchmarkCheckerConflict(b *testing.B) {
	c := core.NewChecker()
	c.Check(core.Announcement{
		Prefix: astypes.MustPrefix(0x83b30000, 16),
		Path:   astypes.NewSeqPath(701, 4),
	})
	attack := core.Announcement{
		Prefix: astypes.MustPrefix(0x83b30000, 16),
		Path:   astypes.NewSeqPath(9, 52),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Check(attack)
	}
}

func BenchmarkRIBDecisionProcess(b *testing.B) {
	tbl := rib.NewTable()
	prefix := astypes.MustPrefix(0x83b30000, 16)
	for peer := astypes.ASN(2); peer < 10; peer++ {
		tbl.Update(&rib.Route{
			Prefix:    prefix,
			Path:      astypes.NewSeqPath(peer, 100, 4),
			LocalPref: rib.DefaultLocalPref,
			FromPeer:  peer,
		})
	}
	update := &rib.Route{
		Prefix:    prefix,
		Path:      astypes.NewSeqPath(11, 4),
		LocalPref: rib.DefaultLocalPref,
		FromPeer:  11,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl.Update(update)
	}
}

func BenchmarkSimConvergence46AS(b *testing.B) {
	set := benchTopologies(b)
	scenarios, err := experiment.Selections(set.T46, 1, 2, 1, 1, 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiment.RunConfig{
		Topology:  set.T46,
		Scenario:  scenarios[0],
		Detection: experiment.DetectionFull,
		ColdStart: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDumpGeneration(b *testing.B) {
	g, err := routegen.New(routegen.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.DumpForDay(i % g.Days()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologySampling(b *testing.B) {
	inf, err := topology.GenerateInternet(topology.DefaultInternetParams(), 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := topology.SampleToSize(inf, 46, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
