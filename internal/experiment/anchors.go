package experiment

import (
	"fmt"
	"math"
)

// Paper anchors: the quantitative claims of §5 that this reproduction
// gates on. Absolute equality with the paper is not expected (the
// substrate differs; see EXPERIMENTS.md), so each anchor expresses a
// *shape* condition with an explicit tolerance.

// Anchor is one checkable claim about a figure.
type Anchor struct {
	// Name identifies the claim in failure messages.
	Name string
	// Check returns a non-empty deviation description when the claim
	// does not hold. sweeps are the figure's results, one per panel in
	// panel order.
	Check func(sweeps []*SweepResult) string
}

// CheckAnchors evaluates every anchor of the figure against its
// results, one per panel in panel order, returning the deviations.
func (f *Figure) CheckAnchors(sweeps []*SweepResult) []string {
	var out []string
	for _, a := range f.Anchors {
		if msg := a.Check(sweeps); msg != "" {
			out = append(out, fmt.Sprintf("Figure %d %s: %s", f.Number, a.Name, msg))
		}
	}
	return out
}

// Mode positions in a figure's results: no detection first, full
// detection last, and Figure 11's half deployment between them.
const (
	normalMode = 0
	halfMode   = 1
)

func fullMode(res *SweepResult) int { return len(res.Modes) - 1 }

// everyPanel lifts a claim about one sweep to every panel of a figure.
func everyPanel(check func(res *SweepResult) string) func([]*SweepResult) string {
	return func(sweeps []*SweepResult) string {
		for _, res := range sweeps {
			if msg := check(res); msg != "" {
				return fmt.Sprintf("%s-AS, %d origin(s): %s", res.TopologyName, res.NumOrigins, msg)
			}
		}
		return ""
	}
}

// pointNear returns the sweep point closest to the given attacker
// percentage.
func pointNear(res *SweepResult, pct float64) *Point {
	best := &res.Points[0]
	for i := range res.Points {
		if math.Abs(res.Points[i].AttackerPct-pct) < math.Abs(best.AttackerPct-pct) {
			best = &res.Points[i]
		}
	}
	return best
}

// figure9Anchors encode the §5.2 claims for every normal-vs-full panel:
//
//  1. detection never exceeds normal BGP at any point;
//  2. near 4% attackers, detection holds adoption under maxLowPct
//     (paper: 0.15%; tolerance admits topology differences);
//  3. near 30% attackers, detection holds adoption under maxHighPct
//     (paper: 9.8%);
//  4. near 30% attackers, detection improves on normal BGP by at least
//     minFactor (paper: ~5x).
func figure9Anchors(maxLowPct, maxHighPct, minFactor float64) []Anchor {
	return []Anchor{
		{
			Name: "detection-never-worse",
			Check: everyPanel(func(res *SweepResult) string {
				for _, p := range res.Points {
					if p.MeanFalsePct[fullMode(res)] > p.MeanFalsePct[normalMode]+1e-9 {
						return fmt.Sprintf("at %d attackers: %.2f%% > %.2f%%",
							p.NumAttackers, p.MeanFalsePct[fullMode(res)], p.MeanFalsePct[normalMode])
					}
				}
				return ""
			}),
		},
		{
			Name: "low-attackers-contained",
			Check: everyPanel(func(res *SweepResult) string {
				if full := pointNear(res, 4).MeanFalsePct[fullMode(res)]; full > maxLowPct {
					return fmt.Sprintf("%.2f%% at ~4%% attackers (limit %.2f%%)", full, maxLowPct)
				}
				return ""
			}),
		},
		{
			Name: "high-attackers-contained",
			Check: everyPanel(func(res *SweepResult) string {
				if full := pointNear(res, 30).MeanFalsePct[fullMode(res)]; full > maxHighPct {
					return fmt.Sprintf("%.2f%% at ~30%% attackers (limit %.2f%%)", full, maxHighPct)
				}
				return ""
			}),
		},
		{
			Name: "improvement-factor",
			Check: everyPanel(func(res *SweepResult) string {
				p := pointNear(res, 30)
				full := p.MeanFalsePct[fullMode(res)]
				if full == 0 {
					return "" // infinite improvement
				}
				if factor := p.MeanFalsePct[normalMode] / full; factor < minFactor {
					return fmt.Sprintf("factor %.1fx at ~30%% attackers (want >= %.1fx)",
						factor, minFactor)
				}
				return ""
			}),
		},
	}
}

// figure10Anchors encode the §5.3 claims, for each origin count: with
// full detection, the 63-AS topology adopts no more false routes than
// the 25-AS one at the largest attacker count, and near 35% attackers
// it stays under maxLargePct (paper: 7.8%).
func figure10Anchors(maxLargePct float64) []Anchor {
	return []Anchor{
		{
			Name: "larger-topology-more-robust",
			Check: func(sweeps []*SweepResult) string {
				largest := func(res *SweepResult) float64 {
					return res.Points[len(res.Points)-1].MeanFalsePct[fullMode(res)]
				}
				for _, small := range sweeps {
					for _, large := range sweeps {
						if small.TopologyName != "25" || large.TopologyName != "63" ||
							small.NumOrigins != large.NumOrigins {
							continue
						}
						if s, l := largest(small), largest(large); l > s+1e-9 {
							return fmt.Sprintf("%d origin(s): 63-AS %.2f%% > 25-AS %.2f%% at the largest attacker count",
								small.NumOrigins, l, s)
						}
					}
				}
				return ""
			},
		},
		{
			Name: "large-topology-contained",
			Check: everyPanel(func(res *SweepResult) string {
				if res.TopologyName != "63" {
					return ""
				}
				if full := pointNear(res, 35).MeanFalsePct[fullMode(res)]; full > maxLargePct {
					return fmt.Sprintf("%.2f%% at ~35%% attackers (limit %.2f%%)", full, maxLargePct)
				}
				return ""
			}),
		},
	}
}

// figure11Anchors encode the §5.4 claims for every normal/half/full
// panel: ordering normal >= half >= full at every point, and half
// deployment removing at least minReduction (fraction of normal's
// adoption) near 30% attackers (paper: >63%; we gate at a looser
// bound).
func figure11Anchors(minReduction float64) []Anchor {
	return []Anchor{
		{
			Name: "deployment-ordering",
			Check: everyPanel(func(res *SweepResult) string {
				for _, p := range res.Points {
					normal, half, full := p.MeanFalsePct[normalMode], p.MeanFalsePct[halfMode], p.MeanFalsePct[fullMode(res)]
					if half > normal+1e-9 || full > half+5 {
						return fmt.Sprintf("ordering broken at %d attackers: %.2f / %.2f / %.2f",
							p.NumAttackers, normal, half, full)
					}
				}
				return ""
			}),
		},
		{
			Name: "partial-reduction",
			Check: everyPanel(func(res *SweepResult) string {
				p := pointNear(res, 30)
				if p.MeanFalsePct[normalMode] == 0 {
					return ""
				}
				reduction := 1 - p.MeanFalsePct[halfMode]/p.MeanFalsePct[normalMode]
				if reduction < minReduction {
					return fmt.Sprintf("partial deployment removed only %.0f%% of the damage (want >= %.0f%%)",
						100*reduction, 100*minReduction)
				}
				return ""
			}),
		},
	}
}
