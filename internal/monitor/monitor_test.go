package monitor

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/dnsval"
	"repro/internal/routegen"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

var prefix = astypes.MustPrefix(0x83b30000, 16)

// entry is a table entry as the monitor observes it: a one-prefix
// announcement.
func entry(p astypes.Prefix, path astypes.ASPath, comms []astypes.Community) *wire.Update {
	return &wire.Update{NLRI: []astypes.Prefix{p}, Attrs: wire.PathAttrs{ASPath: path, Communities: comms}}
}

func TestMonitorDetectsCrossVantageConflict(t *testing.T) {
	m := New()
	// Vantage A sees the valid route; vantage B sees the hijack.
	m.ObserveUpdate("rv-a", entry(prefix, astypes.NewSeqPath(701, 4), nil))
	m.ObserveUpdate("rv-b", entry(prefix, astypes.NewSeqPath(1239, 52), nil))
	alarms := m.Alarms()
	if len(alarms) != 1 {
		t.Fatalf("alarms = %d", len(alarms))
	}
	if alarms[0].Vantage != "rv-b" {
		t.Errorf("vantage = %q", alarms[0].Vantage)
	}
	if alarms[0].Conflict.Origin != 52 {
		t.Errorf("conflicting origin = %v", alarms[0].Conflict.Origin)
	}
	cases := m.MOASCases()
	if len(cases) != 1 || len(cases[0].Origins) != 2 {
		t.Errorf("cases = %+v", cases)
	}
}

func TestMonitorValidMOASNoAlarm(t *testing.T) {
	m := New()
	list := core.NewList(4, 226)
	m.ObserveUpdate("rv-a", entry(prefix, astypes.NewSeqPath(701, 4), list.Communities()))
	m.ObserveUpdate("rv-b", entry(prefix, astypes.NewSeqPath(1239, 226), list.Communities()))
	if got := len(m.Alarms()); got != 0 {
		t.Errorf("valid MOAS raised %d alarms", got)
	}
	cases := m.MOASCases()
	if len(cases) != 1 {
		t.Fatalf("cases = %+v", cases)
	}
	if cases[0].Known || cases[0].Invalid {
		t.Error("without a resolver cases must be unclassified")
	}
}

func TestMonitorResolverClassification(t *testing.T) {
	store := dnsval.NewStore()
	store.Register(prefix, core.NewList(4, 226))
	m := New(WithResolver(store))
	list := core.NewList(4, 226)
	m.ObserveUpdate("a", entry(prefix, astypes.NewSeqPath(701, 4), list.Communities()))
	m.ObserveUpdate("a", entry(prefix, astypes.NewSeqPath(701, 226), list.Communities()))
	other := astypes.MustPrefix(0x0a000000, 8)
	m.ObserveUpdate("a", entry(other, astypes.NewSeqPath(701, 7), nil))
	m.ObserveUpdate("a", entry(other, astypes.NewSeqPath(702, 8), nil))

	cases := m.MOASCases()
	if len(cases) != 2 {
		t.Fatalf("cases = %+v", cases)
	}
	// Sorted by prefix: 10/8 first (unknown to the DB), then 131.179/16.
	if cases[0].Known {
		t.Error("unregistered prefix should be unknown")
	}
	if !cases[1].Known || cases[1].Invalid {
		t.Errorf("registered valid MOAS misclassified: %+v", cases[1])
	}
}

func TestMonitorResolverFlagsInvalid(t *testing.T) {
	store := dnsval.NewStore()
	store.Register(prefix, core.NewList(4))
	m := New(WithResolver(store))
	m.ObserveUpdate("a", entry(prefix, astypes.NewSeqPath(701, 4), nil))
	m.ObserveUpdate("a", entry(prefix, astypes.NewSeqPath(701, 52), nil))
	cases := m.MOASCases()
	if len(cases) != 1 || !cases[0].Invalid {
		t.Errorf("invalid MOAS not flagged: %+v", cases)
	}
}

func TestMonitorObserveUpdateAndWithdraw(t *testing.T) {
	m := New()
	u := &wire.Update{
		Attrs: wire.PathAttrs{
			HasOrigin:  true,
			HasNextHop: true,
			ASPath:     astypes.NewSeqPath(701, 4),
		},
		NLRI: []astypes.Prefix{prefix},
	}
	m.ObserveUpdate("feed", u)
	m.ObserveUpdate("feed", &wire.Update{
		Attrs: wire.PathAttrs{HasOrigin: true, HasNextHop: true, ASPath: astypes.NewSeqPath(9, 52)},
		NLRI:  []astypes.Prefix{prefix},
	})
	if len(m.Alarms()) != 1 {
		t.Fatalf("alarms = %d", len(m.Alarms()))
	}
	// Withdrawal clears both the origin view and the checker state.
	m.ObserveUpdate("feed", &wire.Update{Withdrawn: []astypes.Prefix{prefix}})
	if got := m.MOASCases(); len(got) != 0 {
		t.Errorf("cases after withdrawal = %+v", got)
	}
	// Re-announcement by a single origin raises no further alarm.
	m.ObserveUpdate("feed", u)
	if len(m.Alarms()) != 1 {
		t.Errorf("withdrawal did not reset checker state: %d alarms", len(m.Alarms()))
	}
}

// TestMonitorMOASCaseLifecycle drives one prefix from one origin to
// two, through a withdrawal, and back from the other origin: each step
// raises the alarms, MOAS cases and monitor_moas_cases gauge it did
// before records were split, and a withdrawal leaves no state behind,
// in the records or beside them.
func TestMonitorMOASCaseLifecycle(t *testing.T) {
	m := New()
	announce := func(origin astypes.ASN) *wire.Update {
		return entry(prefix, astypes.NewSeqPath(9, origin), nil)
	}
	withdraw := &wire.Update{Withdrawn: []astypes.Prefix{prefix}}
	steps := []struct {
		name    string
		vantage string
		u       *wire.Update
		// alarm is the conflict the step raises: the recorded list's
		// origin and the announced one; zero for none.
		existing, received astypes.ASN
		cases              []astypes.ASN
		side               int
	}{
		{name: "first origin", vantage: "rv-a", u: announce(4)},
		{name: "second origin", vantage: "rv-b", u: announce(52), existing: 4, received: 52, cases: []astypes.ASN{4, 52}, side: 1},
		{name: "first origin again", vantage: "rv-a", u: announce(4), cases: []astypes.ASN{4, 52}, side: 1},
		{name: "withdrawal", vantage: "rv-a", u: withdraw},
		{name: "second origin first", vantage: "rv-b", u: announce(52)},
		{name: "first origin conflicts", vantage: "rv-a", u: announce(4), existing: 52, received: 4, cases: []astypes.ASN{4, 52}, side: 1},
		{name: "withdrawal again", vantage: "rv-b", u: withdraw},
	}
	alarms := 0
	for _, st := range steps {
		m.ObserveUpdate(st.vantage, st.u)
		if st.existing != 0 {
			alarms++
		}
		got := m.Alarms()
		if len(got) != alarms {
			t.Fatalf("%s: %d alarms, want %d", st.name, len(got), alarms)
		}
		if st.existing != 0 {
			c := got[alarms-1].Conflict
			if c.Verdict != core.VerdictConflict || c.Existing != core.ImplicitList(st.existing) ||
				c.Received != core.ImplicitList(st.received) || got[alarms-1].Vantage != st.vantage {
				t.Errorf("%s: alarm %+v", st.name, got[alarms-1])
			}
		}
		var want []MOASCase
		if st.cases != nil {
			want = []MOASCase{{Prefix: prefix, Origins: st.cases}}
		}
		if cases := m.MOASCases(); !reflect.DeepEqual(cases, want) {
			t.Errorf("%s: MOASCases = %+v, want %+v", st.name, cases, want)
		}
		if gauge := m.met.cases.Value(); gauge != int64(len(want)) {
			t.Errorf("%s: monitor_moas_cases = %d, want %d", st.name, gauge, len(want))
		}
		if len(m.moas) != st.side {
			t.Errorf("%s: %d spilled records, want %d", st.name, len(m.moas), st.side)
		}
	}
	if len(m.prefixes) != 0 {
		t.Errorf("%d records after the last withdrawal, want 0", len(m.prefixes))
	}
}

// TestMonitorMatchesWideRecords replays random announcements and
// withdrawals — implicit, community-carried and attribute-carried
// lists, AS_SET origins and empty paths — over two prefixes, and holds
// the monitor's alarms, MOAS cases and gauge after every step to a
// reference that keeps every prefix's full state (its first-seen list
// and all visible origins) in one record.
func TestMonitorMatchesWideRecords(t *testing.T) {
	type wide struct {
		list    core.List
		listed  bool
		origins []astypes.ASN
	}
	rng := rand.New(rand.NewSource(1))
	m := New()
	ref := map[astypes.Prefix]wide{}
	prefixes := []astypes.Prefix{astypes.MustPrefix(0x0a000000, 8), prefix} // ascending
	alarms := 0
	for i := 0; i < 5000; i++ {
		p := prefixes[rng.Intn(len(prefixes))]
		if rng.Intn(8) == 0 {
			m.ObserveUpdate("v", &wire.Update{Withdrawn: []astypes.Prefix{p}})
			delete(ref, p)
		} else {
			u := entry(p, astypes.ASPath{}, nil)
			switch rng.Intn(6) {
			case 0: // no origin
			case 1:
				u.Attrs.ASPath = astypes.ASPath{Segments: []astypes.Segment{{Type: astypes.SegSet, ASNs: []astypes.ASN{astypes.ASN(1 + rng.Intn(3)), 2}}}}
			default:
				u.Attrs.ASPath = astypes.NewSeqPath(9, astypes.ASN(1+rng.Intn(3)))
			}
			carried := core.NewList(astypes.ASN(1+rng.Intn(3)), astypes.ASN(1+rng.Intn(3)))
			var listAttr []byte
			switch rng.Intn(4) {
			case 0:
				u.Attrs.Communities = carried.Communities()
			case 1:
				listAttr = carried.AttrBytes()
				u.Attrs.Unknown = []wire.UnknownAttr{wire.NewOptionalTransitive(core.ListAttrCode, listAttr)}
			}
			m.ObserveUpdate("v", u)

			r := ref[p]
			_, conflict, first := core.Check(r.list, r.listed, core.Announcement{
				Prefix: p, Path: u.Attrs.ASPath, Communities: u.Attrs.Communities, ListAttr: listAttr,
			})
			if !r.listed && conflict == nil {
				r.list, r.listed = first, true
			}
			if origin, ok := u.Attrs.ASPath.Origin(); ok && !slices.Contains(r.origins, origin) {
				r.origins = append(r.origins, origin)
			}
			ref[p] = r
			if conflict != nil {
				alarms++
				if len(m.alarms) != alarms {
					t.Fatalf("step %d: %d alarms, want %d", i, len(m.alarms), alarms)
				}
				if c := m.alarms[alarms-1].Conflict; c.Verdict != conflict.Verdict || c.Existing != conflict.Existing || c.Received != conflict.Received {
					t.Fatalf("step %d: alarm %+v, want %+v", i, c, *conflict)
				}
			}
		}
		if len(m.alarms) != alarms {
			t.Fatalf("step %d: %d alarms, want %d", i, len(m.alarms), alarms)
		}
		var want []MOASCase
		for _, p := range prefixes {
			if r := ref[p]; len(r.origins) >= 2 {
				want = append(want, MOASCase{Prefix: p, Origins: astypes.SortASNs(slices.Clone(r.origins))})
			}
		}
		if got := m.MOASCases(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: MOASCases = %+v, want %+v", i, got, want)
		}
		if gauge := m.met.cases.Value(); gauge != int64(len(want)) {
			t.Fatalf("step %d: monitor_moas_cases = %d, want %d", i, gauge, len(want))
		}
	}
}

// TestMonitorHonorsListAttribute: an UPDATE's MOAS list may travel in
// the dedicated attribute instead of communities. Both entitled
// origins carrying {4, 5} there raise no alarm; an origin outside it
// does.
func TestMonitorHonorsListAttribute(t *testing.T) {
	m := New()
	attr := wire.NewOptionalTransitive(core.ListAttrCode, core.NewList(4, 5).AttrBytes())
	announce := func(origin astypes.ASN) {
		m.ObserveUpdate("feed", &wire.Update{
			Attrs: wire.PathAttrs{
				HasOrigin:  true,
				HasNextHop: true,
				ASPath:     astypes.NewSeqPath(701, origin),
				Unknown:    []wire.UnknownAttr{attr},
			},
			NLRI: []astypes.Prefix{prefix},
		})
	}
	announce(4)
	announce(5)
	if alarms := m.Alarms(); len(alarms) != 0 {
		t.Fatalf("valid attribute-encoded MOAS raised %d alarms: %+v", len(alarms), alarms)
	}
	announce(52)
	alarms := m.Alarms()
	if len(alarms) != 1 || alarms[0].Conflict.Verdict != core.VerdictOriginNotListed {
		t.Errorf("origin outside the attribute list: alarms = %+v", alarms)
	}
}

// TestMonitorOnAlarmAndAlarmCount: the hook runs once per alarm, after
// the lock is released (it may read the monitor), and AlarmCount
// agrees with the log.
func TestMonitorOnAlarmAndAlarmCount(t *testing.T) {
	var m *Monitor
	var hooked []Alarm
	m = New(WithOnAlarm(func(a Alarm) {
		hooked = append(hooked, a)
		if got := m.AlarmCount(); got != uint64(len(hooked)) {
			t.Errorf("AlarmCount in hook = %d, want %d", got, len(hooked))
		}
	}))
	m.ObserveUpdate("rv-a", entry(prefix, astypes.NewSeqPath(701, 4), nil))
	m.ObserveUpdate("rv-b", entry(prefix, astypes.NewSeqPath(1239, 52), nil))
	alarms := m.Alarms()
	if len(alarms) != 1 || !reflect.DeepEqual(hooked, alarms) {
		t.Fatalf("hook saw %+v, log holds %+v", hooked, alarms)
	}
	if got := m.AlarmCount(); got != uint64(len(alarms)) {
		t.Errorf("AlarmCount = %d, len(Alarms()) = %d", got, len(alarms))
	}
}

func TestMonitorObserveDump(t *testing.T) {
	d := &routegen.Dump{
		Day: 1,
		Entries: []routegen.Entry{
			{Prefix: prefix, Path: astypes.NewSeqPath(701, 4)},
			{Prefix: prefix, Path: astypes.NewSeqPath(1239, 52)},
		},
	}
	m := New()
	m.ObserveDump("rv", d)
	if len(m.Alarms()) != 1 || len(m.MOASCases()) != 1 {
		t.Fatalf("dump ingestion: alarms=%d cases=%d", len(m.Alarms()), len(m.MOASCases()))
	}
}

// TestFirstSeenFlagsEveryListDisagreement: over random router fleets,
// each router's table observed as one dump, first-seen checking alarms
// on exactly the prefixes that a fleet-wide all-pairs comparison of the
// routers' lists flags, plus those with an origin-not-listed row, in
// any router order. If any two routers' lists differ, at least one of
// them differs from the first one recorded.
func TestFirstSeenFlagsEveryListDisagreement(t *testing.T) {
	// allPairs is the all-pairs predicate of a fleet-wide cross-check:
	// a prefix is flagged when any two routers' effective lists differ.
	allPairs := func(lists []core.List) bool {
		for i := range lists {
			for j := i + 1; j < len(lists); j++ {
				if lists[i] != lists[j] {
					return true
				}
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(1))
	prefixes := []astypes.Prefix{prefix, astypes.MustPrefix(0x0a000000, 8), astypes.MustPrefix(0xc0000200, 24)}
	asn := func() astypes.ASN { return astypes.ASN(1 + rng.Intn(3)) }
	// row draws a router's origin for a prefix and its list: the
	// implicit {origin}, or an explicit list that may not name it.
	row := func() (astypes.ASN, core.List, bool) {
		if rng.Intn(2) == 0 {
			o := asn()
			return o, core.ImplicitList(o), false
		}
		return asn(), core.NewList(asn(), asn()), true
	}
	var quiet, flagged int
	for fleet := 0; fleet < 1000; fleet++ {
		routers := make([]*routegen.Dump, 2+rng.Intn(5))
		lists := map[astypes.Prefix][]core.List{}
		want := map[astypes.Prefix]bool{}
		for _, p := range prefixes {
			// Most routers hold the prefix's usual row, so that some
			// fleets agree.
			usualOrigin, usualList, usualExplicit := row()
			for i := range routers {
				if routers[i] == nil {
					routers[i] = &routegen.Dump{}
				}
				origin, list, explicit := usualOrigin, usualList, usualExplicit
				if rng.Intn(4) == 0 {
					origin, list, explicit = row()
				}
				e := routegen.Entry{Prefix: p, Path: astypes.NewSeqPath(astypes.ASN(100+i), origin)}
				if explicit {
					e.Communities = list.Communities()
					want[p] = want[p] || !list.Contains(origin)
				}
				lists[p] = append(lists[p], list)
				routers[i].Entries = append(routers[i].Entries, e)
			}
		}
		for p, l := range lists {
			want[p] = want[p] || allPairs(l)
		}
		for _, order := range [][]int{nil, rng.Perm(len(routers))} {
			m := New()
			for i := range routers {
				if order != nil {
					i = order[i]
				}
				m.ObserveDump(fmt.Sprint("r", i), routers[i])
			}
			got := map[astypes.Prefix]bool{}
			for _, p := range prefixes {
				got[p] = false
			}
			for _, a := range m.Alarms() {
				got[a.Conflict.Prefix] = true
			}
			if !maps.Equal(got, want) {
				t.Fatalf("fleet %d, order %v: alarmed %v, want %v", fleet, order, got, want)
			}
		}
		for _, w := range want {
			if w {
				flagged++
			} else {
				quiet++
			}
		}
	}
	if quiet == 0 || flagged == 0 {
		t.Fatalf("fleets gave %d quiet and %d flagged prefixes; want both", quiet, flagged)
	}
	t.Logf("%d quiet and %d flagged prefixes", quiet, flagged)
}

// TestFirstSeenConsistentFleetIsQuiet: routers whose tables carry the
// same list for a prefix, in any order of its ASes and from either
// listed origin, raise no alarm in either observation order; a monitor
// that observed nothing holds no alarm.
func TestFirstSeenConsistentFleetIsQuiet(t *testing.T) {
	routers := []*routegen.Dump{
		{Entries: []routegen.Entry{{Prefix: prefix, Path: astypes.NewSeqPath(701, 4), Communities: core.NewList(4, 226).Communities()}}},
		{Entries: []routegen.Entry{{Prefix: prefix, Path: astypes.NewSeqPath(702, 226), Communities: core.NewList(226, 4).Communities()}}},
	}
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		m := New()
		for _, i := range order {
			m.ObserveDump(fmt.Sprint("r", i), routers[i])
		}
		if alarms := m.Alarms(); len(alarms) != 0 {
			t.Errorf("order %v: consistent fleet raised %+v", order, alarms)
		}
		if cases := m.MOASCases(); len(cases) != 1 || !reflect.DeepEqual(cases[0].Origins, []astypes.ASN{4, 226}) {
			t.Errorf("order %v: MOASCases = %+v", order, cases)
		}
	}
	if alarms := New().Alarms(); len(alarms) != 0 {
		t.Errorf("empty monitor holds %+v", alarms)
	}
}

func TestAlarmSummaryGroupsByPrefix(t *testing.T) {
	other := astypes.MustPrefix(0x0a000000, 8)
	m := New()
	m.ObserveUpdate("rv-a", entry(prefix, astypes.NewSeqPath(701, 4), nil))
	m.ObserveUpdate("rv-b", entry(prefix, astypes.NewSeqPath(1239, 52), nil))
	m.ObserveUpdate("rv-b", entry(prefix, astypes.NewSeqPath(1239, 53), nil))
	m.ObserveUpdate("rv-a", entry(other, astypes.NewSeqPath(701, 7), nil))
	m.ObserveUpdate("rv-c", entry(other, astypes.NewSeqPath(701, 8), nil))

	groups := m.AlarmSummary()
	if len(groups) != 2 {
		t.Fatalf("groups = %+v", groups)
	}
	top := groups[0]
	if top.Prefix != prefix || top.Count != 2 {
		t.Errorf("top group = %+v", top)
	}
	if len(top.Origins) != 2 || top.Origins[0] != 52 || top.Origins[1] != 53 {
		t.Errorf("top origins = %v", top.Origins)
	}
	if len(top.Vantages) != 1 || top.Vantages[0] != "rv-b" {
		t.Errorf("top vantages = %v", top.Vantages)
	}
	if groups[1].Count != 1 {
		t.Errorf("second group = %+v", groups[1])
	}
	if got := New().AlarmSummary(); len(got) != 0 {
		t.Errorf("empty monitor summary = %v", got)
	}
}

func TestMonitorWithTrace(t *testing.T) {
	rec := trace.NewRecorder(64)
	m := New(WithTrace(rec))
	m.ObserveUpdate("rv-a", entry(prefix, astypes.NewSeqPath(701, 4), nil))
	m.ObserveUpdate("rv-b", entry(prefix, astypes.NewSeqPath(1239, 52), nil))

	var details []trace.Detail
	var spans []uint64
	for _, e := range rec.Events() {
		if e.Kind == trace.KindValidate && e.Prefix == prefix {
			details = append(details, e.Detail)
			spans = append(spans, e.Span)
		}
	}
	want := []trace.Detail{trace.DetailConsistent, trace.DetailConflict}
	if !reflect.DeepEqual(details, want) {
		t.Errorf("validate details = %v, want %v", details, want)
	}

	if rec.AlarmCount() != 1 {
		t.Fatalf("alarm bundles = %d", rec.AlarmCount())
	}
	b, _ := rec.Alarm(0)
	if b.Note != "rv-b" {
		t.Errorf("bundle note = %q, want the vantage name", b.Note)
	}
	// The bundle's span finds the check that raised it.
	if b.Span == 0 || len(spans) != 2 || spans[1] != b.Span || spans[0] == b.Span {
		t.Errorf("validate spans = %v, bundle span %d: want the alarming check's", spans, b.Span)
	}
	if b.Prefix != prefix.String() || b.Origin != 52 {
		t.Errorf("bundle identity: %+v", b)
	}
	if !reflect.DeepEqual(b.Origins, []uint32{4, 52}) {
		t.Errorf("competing origins = %v", b.Origins)
	}
	if !reflect.DeepEqual(b.Path, []uint32{1239, 52}) {
		t.Errorf("offending path = %v", b.Path)
	}
}

// TestAlarmsMetricIsOneSeries: the alarm counter is one series whatever
// the number of conflicting prefixes; per-prefix detail lives in the
// alarms and their forensic bundles, not in the metric's label space.
func TestAlarmsMetricIsOneSeries(t *testing.T) {
	reg := telemetry.NewRegistry("moas")
	m := New(WithTelemetry(reg))
	const prefixes = 1000
	for i := range prefixes {
		p := astypes.MustPrefix(0x0a000000|uint32(i)<<8, 24)
		m.ObserveUpdate("rv-a", entry(p, astypes.NewSeqPath(701, 4), nil))
		m.ObserveUpdate("rv-b", entry(p, astypes.NewSeqPath(1239, 52), nil))
	}
	if got := len(m.Alarms()); got != prefixes {
		t.Fatalf("alarms = %d, want %d", got, prefixes)
	}
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	var series []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "moas_monitor_alarms_total") {
			series = append(series, line)
		}
	}
	if want := fmt.Sprintf("moas_monitor_alarms_total %d", prefixes); len(series) != 1 || series[0] != want {
		t.Errorf("exposition has %d monitor_alarms_total series, first %q; want only %q",
			len(series), series[:min(len(series), 2)], want)
	}
}

// TestMonitorConcurrentFeeds: feeds observed in parallel each see the
// hook run once per alarm they raised, after the lock is released, and
// the log, the hook and the counter agree.
func TestMonitorConcurrentFeeds(t *testing.T) {
	var hooked atomic.Int64
	m := New(WithOnAlarm(func(Alarm) { hooked.Add(1) }))
	const feeds, prefixes = 4, 200
	var wg sync.WaitGroup
	for f := range feeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vantage := fmt.Sprintf("rv-%d", f)
			for i := range prefixes {
				p := astypes.MustPrefix(0x0a000000|uint32(i)<<8, 24)
				// Every feed announces its own origin for each prefix:
				// all but the first to arrive conflict.
				m.ObserveUpdate(vantage, entry(p, astypes.NewSeqPath(701, astypes.ASN(10+f)), nil))
			}
		}()
	}
	wg.Wait()
	want := (feeds - 1) * prefixes
	if got := len(m.Alarms()); got != want || hooked.Load() != int64(want) || m.AlarmCount() != uint64(want) {
		t.Errorf("alarms %d, hooked %d, AlarmCount %d; want %d", got, hooked.Load(), m.AlarmCount(), want)
	}
}
