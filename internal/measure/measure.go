// Package measure implements the paper's MOAS measurement pipeline
// (§3.1): it scans a series of daily routing-table dumps, extracts the
// Multiple-Origin-AS cases, and produces the statistics behind Figure 4
// (daily conflict counts), Figure 5 (case-duration histogram), and the
// summary numbers quoted in §3 and §4.3 (one-day-case fraction,
// origin-set size distribution, multi-origin route count).
package measure

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/astypes"
	"repro/internal/routegen"
	"repro/internal/stats"
)

// DailyCount is one point of Figure 4.
type DailyCount struct {
	Day   int
	Date  time.Time
	Cases int
}

// Analysis accumulates MOAS statistics over a dump series. Feed it
// dumps in day order via Observe, then read the reports.
type Analysis struct {
	daily []DailyCount
	// durationDays[prefix] counts the total number of days the prefix
	// had multiple origins, "regardless of whether the days were
	// continuous and regardless of whether the same set of origins was
	// involved" (§3.1).
	durationDays map[astypes.Prefix]int
	// originSizes records, per observed (prefix, day), the origin-set
	// size; used for the two-vs-three origin split.
	originSizes *stats.Histogram
	// maxOrigins[prefix] tracks the largest origin set ever seen.
	maxOrigins map[astypes.Prefix]int

	// Per-day scratch reused across Observe calls: prefix -> slot in
	// scratchSets. Replaces the old map[Prefix]map[ASN]struct{} so the
	// per-day pass allocates nothing once warm.
	scratchIdx  map[astypes.Prefix]int32
	scratchSets []originSet
}

// originSet is a small dedup set of origin ASes. Origin sets are tiny
// (the paper: 96% have two, almost all the rest three), so the common
// case lives inline; spill keeps larger sets correct.
type originSet struct {
	count  int32
	inline [8]astypes.ASN
	spill  []astypes.ASN
}

func (s *originSet) add(asn astypes.ASN) {
	n := int(s.count)
	if n > len(s.inline) {
		n = len(s.inline)
	}
	for i := 0; i < n; i++ {
		if s.inline[i] == asn {
			return
		}
	}
	for _, a := range s.spill {
		if a == asn {
			return
		}
	}
	if int(s.count) < len(s.inline) {
		s.inline[s.count] = asn
	} else {
		s.spill = append(s.spill, asn)
	}
	s.count++
}

// NewAnalysis returns an empty analysis.
func NewAnalysis() *Analysis {
	return &Analysis{
		durationDays: make(map[astypes.Prefix]int),
		originSizes:  stats.NewHistogram(),
		maxOrigins:   make(map[astypes.Prefix]int),
	}
}

// Observe ingests one day's dump. The per-day origin grouping uses a
// flat accumulator (one index map plus a slot slice, both reused
// across days) rather than a freshly built map of maps; results are
// identical to the map-of-maps baseline the package tests keep.
func (a *Analysis) Observe(d *routegen.Dump) {
	a.beginDay()
	for _, e := range d.Entries {
		if origin, ok := e.Path.Origin(); ok {
			a.noteOrigin(e.Prefix, origin)
		}
	}
	a.endDay(d.Day, d.Date)
}

// beginDay resets the per-day scratch; every (prefix, origin) sighting
// of the day then flows through noteOrigin, and endDay folds the day
// into the running statistics. Observe and the MRT adapter share this
// accumulator so synthetic dumps and real archives are measured by the
// exact same code.
func (a *Analysis) beginDay() {
	if a.scratchIdx == nil {
		a.scratchIdx = make(map[astypes.Prefix]int32, 4096)
	} else {
		clear(a.scratchIdx)
	}
	a.scratchSets = a.scratchSets[:0]
}

// noteOrigin records one (prefix, origin) sighting for the current day.
func (a *Analysis) noteOrigin(prefix astypes.Prefix, origin astypes.ASN) {
	i, ok := a.scratchIdx[prefix]
	if !ok {
		i = int32(len(a.scratchSets))
		a.scratchSets = append(a.scratchSets, originSet{})
		a.scratchIdx[prefix] = i
	}
	a.scratchSets[i].add(origin)
}

// endDay folds the day's accumulated origin sets into the running
// statistics and appends the daily case count.
func (a *Analysis) endDay(day int, date time.Time) {
	cases := 0
	for prefix, i := range a.scratchIdx {
		n := int(a.scratchSets[i].count)
		if n < 2 {
			continue
		}
		cases++
		a.durationDays[prefix]++
		a.originSizes.Add(n)
		if n > a.maxOrigins[prefix] {
			a.maxOrigins[prefix] = n
		}
	}
	a.daily = append(a.daily, DailyCount{Day: day, Date: date, Cases: cases})
}

// Daily returns the Figure 4 series in observation order.
func (a *Analysis) Daily() []DailyCount {
	out := make([]DailyCount, len(a.daily))
	copy(out, a.daily)
	return out
}

// DurationHistogram returns the Figure 5 histogram: number of MOAS
// cases (prefixes) by total duration in days.
func (a *Analysis) DurationHistogram() *stats.Histogram {
	h := stats.NewHistogram()
	for _, days := range a.durationDays {
		h.Add(days)
	}
	return h
}

// Summary is the paper's §3 headline numbers.
type Summary struct {
	// TotalCases is the number of distinct prefixes that ever had
	// multiple origins.
	TotalCases int
	// OneDayCases and OneDayFraction cover cases whose total duration
	// was exactly one day (paper: 1373, 35.9%).
	OneDayCases    int
	OneDayFraction float64
	// MedianDailyByYear maps calendar year to the median daily case
	// count (paper: 683 in 1998, 1294 in 2001).
	MedianDailyByYear map[int]float64
	// MaxDaily and MaxDailyDate locate the largest spike (paper:
	// 1998-04-07).
	MaxDaily     int
	MaxDailyDate time.Time
	// TwoOriginFraction and ThreeOriginFraction are over observed
	// (prefix, day) cases (paper: 96.14% and 2.7%).
	TwoOriginFraction   float64
	ThreeOriginFraction float64
	// MaxSimultaneousMultiOrigin is the largest number of multi-origin
	// prefixes present on a single day (paper §4.3: "less than 3,000").
	MaxSimultaneousMultiOrigin int
}

// Summarize computes the summary statistics.
func (a *Analysis) Summarize() Summary {
	s := Summary{
		TotalCases:        len(a.durationDays),
		MedianDailyByYear: make(map[int]float64),
	}
	for _, days := range a.durationDays {
		if days == 1 {
			s.OneDayCases++
		}
	}
	if s.TotalCases > 0 {
		s.OneDayFraction = float64(s.OneDayCases) / float64(s.TotalCases)
	}
	byYear := make(map[int][]int)
	for _, dc := range a.daily {
		byYear[dc.Date.Year()] = append(byYear[dc.Date.Year()], dc.Cases)
		if dc.Cases > s.MaxDaily {
			s.MaxDaily = dc.Cases
			s.MaxDailyDate = dc.Date
		}
	}
	// Both report the maximum of the same daily series; track it once.
	s.MaxSimultaneousMultiOrigin = s.MaxDaily
	for year, counts := range byYear {
		s.MedianDailyByYear[year] = stats.MedianInts(counts)
	}
	s.TwoOriginFraction = a.originSizes.Fraction(2)
	s.ThreeOriginFraction = a.originSizes.Fraction(3)
	return s
}

// String renders the summary in the shape of the paper's §3 prose.
func (s Summary) String() string {
	out := fmt.Sprintf("total MOAS cases: %d\n", s.TotalCases)
	out += fmt.Sprintf("one-day cases: %d (%.1f%%)\n", s.OneDayCases, 100*s.OneDayFraction)
	for _, year := range sortedYears(s.MedianDailyByYear) {
		out += fmt.Sprintf("median daily cases %d: %.0f\n", year, s.MedianDailyByYear[year])
	}
	out += fmt.Sprintf("max daily cases: %d on %s\n", s.MaxDaily, s.MaxDailyDate.Format("2006-01-02"))
	out += fmt.Sprintf("origin-set sizes: %.2f%% two, %.2f%% three\n",
		100*s.TwoOriginFraction, 100*s.ThreeOriginFraction)
	return out
}

func sortedYears(m map[int]float64) []int {
	years := make([]int, 0, len(m))
	for y := range m {
		years = append(years, y)
	}
	sort.Ints(years)
	return years
}

// Run executes the full pipeline over a generator's series.
func Run(g *routegen.Generator) (*Analysis, error) {
	a := NewAnalysis()
	if err := g.Series(func(d *routegen.Dump) error {
		a.Observe(d)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	return a, nil
}

// RunParallel is Run with dump generation fanned out over a bounded
// worker pool (see routegen.SeriesParallel). Observe still runs on the
// calling goroutine in strict day order, so the resulting Analysis is
// identical to Run's. workers <= 1 degrades to the serial pipeline;
// workers == 0 should be resolved to GOMAXPROCS by the caller.
func RunParallel(g *routegen.Generator, workers int) (*Analysis, error) {
	a := NewAnalysis()
	if err := g.SeriesParallel(workers, func(d *routegen.Dump) error {
		a.Observe(d)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	return a, nil
}
