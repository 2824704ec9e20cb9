package measure

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/routegen"
)

func entry(prefix string, origin astypes.ASN) routegen.Entry {
	return routegen.Entry{
		Prefix: astypes.MustPrefix(mustAddr(prefix)),
		Path:   astypes.NewSeqPath(6447, 701, origin),
	}
}

func mustAddr(s string) (uint32, uint8) {
	p, err := astypes.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p.Addr, p.Len
}

func dump(day int, entries ...routegen.Entry) *routegen.Dump {
	return &routegen.Dump{
		Day:     day,
		Date:    routegen.StudyStart.AddDate(0, 0, day),
		Entries: entries,
	}
}

func TestObserveCountsMOASOnly(t *testing.T) {
	a := NewAnalysis()
	a.Observe(dump(0,
		entry("10.0.0.0/8", 1),
		entry("10.0.0.0/8", 2), // MOAS
		entry("20.0.0.0/8", 3), // single origin
		entry("30.0.0.0/8", 4),
		entry("30.0.0.0/8", 4), // duplicate origin: not MOAS
	))
	daily := a.Daily()
	if len(daily) != 1 || daily[0].Cases != 1 {
		t.Fatalf("daily = %+v", daily)
	}
}

func TestDurationCountsNonContiguousDays(t *testing.T) {
	// "regardless of whether the days were continuous and regardless of
	// whether the same set of origins was involved" (§3.1).
	a := NewAnalysis()
	a.Observe(dump(0, entry("10.0.0.0/8", 1), entry("10.0.0.0/8", 2)))
	a.Observe(dump(1, entry("10.0.0.0/8", 1))) // quiet day
	a.Observe(dump(2, entry("10.0.0.0/8", 1), entry("10.0.0.0/8", 3)))
	h := a.DurationHistogram()
	if h.Count(2) != 1 || h.Total() != 1 {
		t.Errorf("duration histogram = %v", h)
	}
}

func TestSummaryStatistics(t *testing.T) {
	a := NewAnalysis()
	// Day 0 (1997): two 2-origin cases and one 3-origin case.
	a.Observe(dump(0,
		entry("10.0.0.0/8", 1), entry("10.0.0.0/8", 2),
		entry("20.0.0.0/8", 3), entry("20.0.0.0/8", 4),
		entry("30.0.0.0/8", 5), entry("30.0.0.0/8", 6), entry("30.0.0.0/8", 7),
	))
	// Day 1: only one of them persists.
	a.Observe(dump(1, entry("10.0.0.0/8", 1), entry("10.0.0.0/8", 2)))
	s := a.Summarize()
	if s.TotalCases != 3 {
		t.Errorf("TotalCases = %d", s.TotalCases)
	}
	if s.OneDayCases != 2 {
		t.Errorf("OneDayCases = %d", s.OneDayCases)
	}
	if s.MaxDaily != 3 {
		t.Errorf("MaxDaily = %d", s.MaxDaily)
	}
	wantDate := routegen.StudyStart
	if !s.MaxDailyDate.Equal(wantDate) {
		t.Errorf("MaxDailyDate = %v", s.MaxDailyDate)
	}
	// Daily cases were 3 (day 0) and 1 (day 1): median 2.
	if got := s.MedianDailyByYear[1997]; got != 2 {
		t.Errorf("median 1997 = %v", got)
	}
	// Observations: 3 two-origin (2 on day 0 + 1 on day 1), 1 three-origin.
	if s.TwoOriginFraction != 0.75 || s.ThreeOriginFraction != 0.25 {
		t.Errorf("origin fractions = %v / %v", s.TwoOriginFraction, s.ThreeOriginFraction)
	}
	// String() should mention the headline numbers.
	str := s.String()
	for _, want := range []string{"total MOAS cases: 3", "one-day cases: 2"} {
		if !containsStr(str, want) {
			t.Errorf("summary %q missing %q", str, want)
		}
	}
}

// TestSummaryListsYearsInOrder: the per-year medians print in ascending
// year order on every call, whatever the map's iteration order.
func TestSummaryListsYearsInOrder(t *testing.T) {
	s := Summary{MedianDailyByYear: map[int]float64{}}
	for year := 1990; year <= 2001; year++ {
		s.MedianDailyByYear[year] = float64(year)
	}
	for i := 0; i < 20; i++ {
		prev := 0
		for _, line := range strings.Split(s.String(), "\n") {
			var year int
			var median float64
			if _, err := fmt.Sscanf(line, "median daily cases %d: %f", &year, &median); err != nil {
				continue
			}
			if year <= prev {
				t.Fatalf("year %d listed after %d:\n%s", year, prev, s.String())
			}
			prev = year
		}
		if prev != 2001 {
			t.Fatalf("last year listed is %d, want 2001", prev)
		}
	}
}

func TestEmptyAnalysis(t *testing.T) {
	s := NewAnalysis().Summarize()
	if s.TotalCases != 0 || s.OneDayFraction != 0 || s.MaxDaily != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestAnalysisIgnoresEmptyPaths(t *testing.T) {
	a := NewAnalysis()
	a.Observe(&routegen.Dump{Day: 0, Date: time.Now(), Entries: []routegen.Entry{
		{Prefix: astypes.MustPrefix(0x0a000000, 8)}, // no path
		entry("10.0.0.0/8", 1),
	}})
	if a.Daily()[0].Cases != 0 {
		t.Error("pathless entry should not create a MOAS case")
	}
}

// TestCalibrationAgainstPaper runs the full default series and asserts
// the §3 statistics within tolerances. This is the reproduction gate
// for Figures 4 and 5; EXPERIMENTS.md records the exact values.
func TestCalibrationAgainstPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1279-day series; skipped with -short")
	}
	g, err := routegen.New(routegen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	s := a.Summarize()
	t.Logf("summary:\n%s", s.String())

	assertBetween(t, "total cases", float64(s.TotalCases), 3400, 4700)           // paper ~3824
	assertBetween(t, "one-day fraction", s.OneDayFraction, 0.31, 0.41)           // paper 35.9%
	assertBetween(t, "median 1998", s.MedianDailyByYear[1998], 600, 780)         // paper 683
	assertBetween(t, "median 2001", s.MedianDailyByYear[2001], 1150, 1440)       // paper 1294
	assertBetween(t, "two-origin fraction", s.TwoOriginFraction, 0.92, 0.985)    // paper 96.14%
	assertBetween(t, "three-origin fraction", s.ThreeOriginFraction, 0.01, 0.05) // paper 2.7%
	if got := s.MaxDailyDate.Format("2006-01-02"); got != "1998-04-07" {
		t.Errorf("max daily on %s, want 1998-04-07 (the AS8584 event)", got)
	}
	// Daily counts rise over the window (Figure 4's trend).
	daily := a.Daily()
	firstYear, lastYear := 0.0, 0.0
	for _, dc := range daily[:365] {
		firstYear += float64(dc.Cases)
	}
	for _, dc := range daily[len(daily)-365:] {
		lastYear += float64(dc.Cases)
	}
	if lastYear <= firstYear*1.3 {
		t.Errorf("daily MOAS counts should grow markedly: first-year sum %.0f, last-year sum %.0f",
			firstYear, lastYear)
	}
	// Figure 5's bimodal shape: a dominant 1-day bin plus a long tail.
	h := a.DurationHistogram()
	if h.Count(1) < h.Count(2) {
		t.Error("1-day cases should dominate 2-day cases")
	}
	longTail := 0
	for _, bin := range h.Bins() {
		if bin.Value >= 300 {
			longTail += bin.Count
		}
	}
	if longTail < 100 {
		t.Errorf("expected a substantial long-duration tail, got %d cases >= 300 days", longTail)
	}
}

func assertBetween(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %v, want within [%v, %v]", name, got, lo, hi)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
