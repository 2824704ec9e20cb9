package routegen

import (
	"testing"

	"repro/internal/astypes"
)

// smallConfig keeps unit tests fast; calibration against the paper's
// numbers is asserted in internal/measure.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 120
	cfg.SingleOriginPrefixes = 300
	cfg.BaseCases = 40
	cfg.GrowthCases = 30
	cfg.ChurnCases = 20
	cfg.ShortFaultCases = 15
	cfg.ExchangePointCases = 2
	cfg.Events = []FaultEvent{
		{Day: 50, Duration: 1, FaultAS: 8584, Prefixes: 25},
		{Day: 80, Duration: 1, RepeatOffsets: []int{4}, FaultAS: 15412, UpstreamAS: 3561, Prefixes: 10},
	}
	return cfg
}

func TestGeneratorValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Days = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero days accepted")
	}
	cfg = smallConfig()
	cfg.Events = []FaultEvent{{Day: 10, Duration: 1, FaultAS: 1, Prefixes: 10_000}}
	if _, err := New(cfg); err == nil {
		t.Error("event larger than baseline accepted")
	}
}

func TestDumpForDayBounds(t *testing.T) {
	g, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.DumpForDay(-1); err == nil {
		t.Error("negative day accepted")
	}
	if _, err := g.DumpForDay(g.Days()); err == nil {
		t.Error("day == Days accepted")
	}
	d, err := g.DumpForDay(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Entries) == 0 {
		t.Error("empty dump")
	}
	if !d.Date.Equal(StudyStart) {
		t.Errorf("day 0 date = %v", d.Date)
	}
}

func TestDumpDeterminism(t *testing.T) {
	g1, _ := New(smallConfig())
	g2, _ := New(smallConfig())
	d1, _ := g1.DumpForDay(33)
	d2, _ := g2.DumpForDay(33)
	if len(d1.Entries) != len(d2.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(d1.Entries), len(d2.Entries))
	}
	for i := range d1.Entries {
		if d1.Entries[i].Prefix != d2.Entries[i].Prefix ||
			!d1.Entries[i].Path.Equal(d2.Entries[i].Path) {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func originSets(d *Dump) map[astypes.Prefix]map[astypes.ASN]bool {
	sets := make(map[astypes.Prefix]map[astypes.ASN]bool)
	for _, e := range d.Entries {
		if sets[e.Prefix] == nil {
			sets[e.Prefix] = make(map[astypes.ASN]bool)
		}
		sets[e.Prefix][e.Origin()] = true
	}
	return sets
}

func countMOAS(d *Dump) int {
	n := 0
	for _, set := range originSets(d) {
		if len(set) > 1 {
			n++
		}
	}
	return n
}

func TestEventSpikeVisible(t *testing.T) {
	g, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	before, _ := g.DumpForDay(49)
	event, _ := g.DumpForDay(50)
	after, _ := g.DumpForDay(51)
	b, e, a := countMOAS(before), countMOAS(event), countMOAS(after)
	if e < b+20 {
		t.Errorf("event day should spike: before=%d event=%d", b, e)
	}
	if a >= e {
		t.Errorf("spike should subside: event=%d after=%d", e, a)
	}
}

func TestRepeatEventReusesVictims(t *testing.T) {
	g, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, _ := g.DumpForDay(80)
	repeat, _ := g.DumpForDay(84)
	victimsOf := func(d *Dump) map[astypes.Prefix]bool {
		v := make(map[astypes.Prefix]bool)
		for p, set := range originSets(d) {
			if set[15412] {
				v[p] = true
			}
		}
		return v
	}
	v1, v2 := victimsOf(first), victimsOf(repeat)
	if len(v1) == 0 || len(v1) != len(v2) {
		t.Fatalf("victim sets sized %d and %d", len(v1), len(v2))
	}
	for p := range v1 {
		if !v2[p] {
			t.Fatalf("victim %s missing from the repeat day", p)
		}
	}
}

func TestEventAbsentOtherDays(t *testing.T) {
	g, _ := New(smallConfig())
	d, _ := g.DumpForDay(10)
	// AS 8584 lies outside every random ASN range, so any sighting off
	// the event day is a leak. (AS 15412 falls inside the stub range and
	// can legitimately appear as a random origin.)
	for _, set := range originSets(d) {
		if set[8584] {
			t.Fatal("event origin visible outside event days")
		}
	}
}

func TestCaseKindClassification(t *testing.T) {
	tests := []struct {
		kind      CaseKind
		wantValid bool
		wantName  string
	}{
		{KindMultiHoming, true, "multi-homing"},
		{KindASE, true, "ase"},
		{KindExchangePoint, true, "exchange-point"},
		{KindShortFault, false, "short-fault"},
		{KindMassFault, false, "mass-fault"},
	}
	for _, tt := range tests {
		if tt.kind.Valid() != tt.wantValid {
			t.Errorf("%v.Valid() = %v", tt.kind, tt.kind.Valid())
		}
		if tt.kind.String() != tt.wantName {
			t.Errorf("%v.String() = %q", tt.kind, tt.kind.String())
		}
	}
}

func TestSeriesVisitsEveryDay(t *testing.T) {
	cfg := smallConfig()
	cfg.Days = 10
	g, _ := New(cfg)
	var days []int
	err := g.Series(func(d *Dump) error {
		days = append(days, d.Day)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 10 || days[0] != 0 || days[9] != 9 {
		t.Errorf("days = %v", days)
	}
}

func TestHistoricalEventDates(t *testing.T) {
	if got := StudyStart.AddDate(0, 0, EventAS8584Day).Format("2006-01-02"); got != "1998-04-07" {
		t.Errorf("AS8584 event date = %s", got)
	}
	if got := StudyStart.AddDate(0, 0, EventAS15412Day).Format("2006-01-02"); got != "2001-04-06" {
		t.Errorf("AS15412 event date = %s", got)
	}
	if EventAS7007Day >= 0 {
		t.Error("the 1997-04-25 event must predate the study window")
	}
}
