package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/astypes"
)

var testPrefix = astypes.MustPrefix(0x83b30000, 16)

func TestNewListCanonicalizes(t *testing.T) {
	l := NewList(5, 1, 5, 3)
	if got := l.String(); got != "{1, 3, 5}" {
		t.Errorf("String() = %q", got)
	}
	if l.Len() != 3 {
		t.Errorf("Len() = %d", l.Len())
	}
	if !l.Contains(3) || l.Contains(4) {
		t.Error("Contains misbehaves")
	}
}

func TestListEqualIsSetEquality(t *testing.T) {
	// "The order in the list may differ, but the set of ASes included
	// in each route announcement must be identical" (§4.2).
	a := NewList(1, 2)
	b := NewList(2, 1)
	c := NewList(1, 2, 3)
	if a != b {
		t.Error("order must not matter")
	}
	if a == c || c == a {
		t.Error("different sets must differ")
	}
	if NewList() != (List{}) {
		t.Error("empty lists are equal")
	}
	if a == (List{}) {
		t.Error("non-empty != empty")
	}
}

func TestListCommunitiesRoundTrip(t *testing.T) {
	l := NewList(4, 226)
	comms := l.Communities()
	if len(comms) != 2 {
		t.Fatalf("Communities() len = %d", len(comms))
	}
	for _, c := range comms {
		if c.Value() != MLVal {
			t.Errorf("community %v lacks MLVal", c)
		}
	}
	back, has := FromCommunities(comms)
	if !has || back != l {
		t.Errorf("FromCommunities = %v, %v", back, has)
	}
}

func TestFromCommunitiesIgnoresOthers(t *testing.T) {
	comms := []astypes.Community{
		astypes.NewCommunity(701, 666), // unrelated community
		astypes.NewCommunity(4, MLVal),
	}
	l, has := FromCommunities(comms)
	if !has || l != NewList(4) {
		t.Errorf("FromCommunities = %v, %v", l, has)
	}
	l, has = FromCommunities([]astypes.Community{astypes.NewCommunity(701, 666)})
	if has || !l.Empty() {
		t.Errorf("no MOAS communities should mean hasList=false; got %v, %v", l, has)
	}
}

func TestImplicitListRule(t *testing.T) {
	// "If a route does not contain a MOAS list, it will be treated as
	// if it carries a MOAS list containing the origin AS" (§4.2 fn 3).
	eff, err := EffectiveList(nil, astypes.NewSeqPath(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if eff != ImplicitList(3) {
		t.Errorf("EffectiveList = %v, want {3}", eff)
	}
	// Explicit list wins over implicit.
	eff, err = EffectiveList(NewList(7, 8).Communities(), astypes.NewSeqPath(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if eff != NewList(7, 8) {
		t.Errorf("EffectiveList = %v, want {7, 8}", eff)
	}
	// No list and no origin is an error.
	if _, err := EffectiveList(nil, astypes.ASPath{}); err == nil {
		t.Error("EffectiveList on empty path should fail")
	}
}

func TestWithOrigin(t *testing.T) {
	base := NewList(1, 2)
	forged := base.WithOrigin(9)
	if forged != NewList(1, 2, 9) {
		t.Errorf("WithOrigin = %v", forged)
	}
	if base != NewList(1, 2) {
		t.Error("WithOrigin must not mutate the receiver")
	}
}

func TestStripMOAS(t *testing.T) {
	other := astypes.NewCommunity(701, 666)
	comms := append(NewList(1, 2).Communities(), other)
	stripped := StripMOAS(comms)
	if len(stripped) != 1 || stripped[0] != other {
		t.Errorf("StripMOAS = %v", stripped)
	}
	if StripMOAS(nil) != nil {
		t.Error("StripMOAS(nil) should be nil")
	}
}

func TestOriginsCopyIsDefensive(t *testing.T) {
	l := NewList(1, 2)
	got := l.Origins()
	got[0] = 99
	if l != NewList(1, 2) {
		t.Error("Origins() must return a copy")
	}
}

func TestListSetSemanticsQuick(t *testing.T) {
	f := func(a, b []uint16) bool {
		toList := func(in []uint16) List {
			asns := make([]astypes.ASN, len(in))
			for i, v := range in {
				asns[i] = astypes.ASN(v)
			}
			return NewList(asns...)
		}
		la, lb := toList(a), toList(b)
		// Equality must agree with map-based set equality.
		set := func(in []uint16) map[uint16]bool {
			m := make(map[uint16]bool)
			for _, v := range in {
				m[v] = true
			}
			return m
		}
		sa, sb := set(a), set(b)
		same := len(sa) == len(sb)
		if same {
			for k := range sa {
				if !sb[k] {
					same = false
					break
				}
			}
		}
		return (la == lb) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckerFirstAnnouncementAccepted(t *testing.T) {
	c := NewChecker()
	v, conflict := c.Check(Announcement{
		Prefix: testPrefix,
		Path:   astypes.NewSeqPath(2, 4),
	})
	if v != VerdictConsistent || conflict != nil {
		t.Fatalf("first announcement: %v, %v", v, conflict)
	}
	_, conflict = c.Check(Announcement{Prefix: testPrefix, Path: astypes.NewSeqPath(52)})
	if conflict == nil || conflict.Existing != ImplicitList(4) {
		t.Errorf("recorded list = %v", conflict)
	}
}

func TestCheckerDetectsConflict(t *testing.T) {
	c := NewChecker()

	// Valid MOAS: both origins announce the same list.
	list := NewList(1, 2)
	for _, origin := range []astypes.ASN{1, 2} {
		v, conflict := c.Check(Announcement{
			Prefix:      testPrefix,
			Path:        astypes.NewSeqPath(9, origin),
			Communities: list.Communities(),
		})
		if v != VerdictConsistent || conflict != nil {
			t.Fatalf("valid MOAS flagged: %v, %v", v, conflict)
		}
	}

	// The attacker's bare announcement conflicts.
	v, conflict := c.Check(Announcement{
		Prefix:   testPrefix,
		Path:     astypes.NewSeqPath(9, 52),
		FromPeer: 9,
	})
	if v != VerdictConflict || conflict == nil {
		t.Fatalf("attack not detected: %v", v)
	}
	if conflict.Origin != 52 || conflict.FromPeer != 9 || conflict.Verdict != VerdictConflict {
		t.Errorf("conflict details = %+v", conflict)
	}
	if conflict.Existing != list || conflict.Received != ImplicitList(52) {
		t.Errorf("conflict lists = %v vs %v", conflict.Existing, conflict.Received)
	}
}

func TestCheckerOriginNotListed(t *testing.T) {
	c := NewChecker()
	// A route whose own list omits its origin is bogus on its face.
	v, conflict := c.Check(Announcement{
		Prefix:      testPrefix,
		Path:        astypes.NewSeqPath(9, 52),
		Communities: NewList(1, 2).Communities(),
	})
	if v != VerdictOriginNotListed || conflict == nil {
		t.Fatalf("verdict = %v", v)
	}
	// It must not have established list state for the prefix.
	if v, _ := c.Check(Announcement{Prefix: testPrefix, Path: astypes.NewSeqPath(7)}); v != VerdictConsistent {
		t.Errorf("bogus route established the prefix list: next origin %v", v)
	}
}

func TestCheckerForgedSupersetDetected(t *testing.T) {
	c := NewChecker()
	valid := NewList(1, 2)
	if v, _ := c.Check(Announcement{
		Prefix:      testPrefix,
		Path:        astypes.NewSeqPath(1),
		Communities: valid.Communities(),
	}); v != VerdictConsistent {
		t.Fatalf("valid announcement flagged: %v", v)
	}
	forged := valid.WithOrigin(52)
	v, _ := c.Check(Announcement{
		Prefix:      testPrefix,
		Path:        astypes.NewSeqPath(52),
		Communities: forged.Communities(),
	})
	if v != VerdictConflict {
		t.Errorf("forged superset list not detected: %v", v)
	}
}

// TestCheckRecordsOnFirstSightOnly: the check hands back a list to
// record only on a consistent first sight, and judges later
// announcements against the recorded list it is given.
func TestCheckRecordsOnFirstSightOnly(t *testing.T) {
	implicit := func(origin astypes.ASN) Announcement {
		return Announcement{Prefix: testPrefix, Path: astypes.NewSeqPath(9, origin)}
	}
	v, conflict, first := Check(List{}, false, implicit(4))
	if v != VerdictConsistent || conflict != nil || first != ImplicitList(4) {
		t.Fatalf("first sight: %v, %v, record %v", v, conflict, first)
	}
	if v, conflict, rec := Check(first, true, implicit(4)); v != VerdictConsistent || conflict != nil || !rec.Empty() {
		t.Errorf("repeat: %v, %v, record %v", v, conflict, rec)
	}
	v, conflict, rec := Check(first, true, implicit(52))
	if v != VerdictConflict || conflict == nil || conflict.Existing != first || !rec.Empty() {
		t.Errorf("second origin: %v, %v, record %v", v, conflict, rec)
	}
	bogus := Announcement{Prefix: testPrefix, Path: astypes.NewSeqPath(52), Communities: NewList(4).Communities()}
	if v, _, rec := Check(List{}, false, bogus); v != VerdictOriginNotListed || !rec.Empty() {
		t.Errorf("origin outside its own list on first sight: %v, record %v", v, rec)
	}
}

// TestCheckerAlarmsAreCopies: a returned Conflict owns its path, so the
// caller may keep or mutate it without touching the announcement or any
// later conflict.
func TestCheckerAlarmsAreCopies(t *testing.T) {
	c := NewChecker()
	c.Check(Announcement{Prefix: testPrefix, Path: astypes.NewSeqPath(4)})
	path := astypes.NewSeqPath(52)
	_, a1 := c.Check(Announcement{Prefix: testPrefix, Path: path})
	a1.Path.Segments[0].ASNs[0] = 9999
	_, a2 := c.Check(Announcement{Prefix: testPrefix, Path: path})
	if path.String() != "52" || a2.Path.String() != "52" {
		t.Errorf("conflict path aliases its input: input %v, next conflict %v", path, a2.Path)
	}
}

func TestCheckerConcurrentUse(t *testing.T) {
	c := NewChecker()
	var wg sync.WaitGroup
	var conflicts atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(origin astypes.ASN) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if _, conflict := c.Check(Announcement{
					Prefix: testPrefix,
					Path:   astypes.NewSeqPath(9, origin),
				}); conflict != nil {
					conflicts.Add(1)
				}
			}
		}(astypes.ASN(i + 1))
	}
	wg.Wait()
	// 8 distinct implicit lists: whichever got there first won; the
	// other 7 origins conflict on every check.
	if got := conflicts.Load(); got != 7*200 {
		t.Errorf("conflicts = %d, want %d", got, 7*200)
	}
}

// TestCheckConsistentImplicitAllocFree: re-checking an implicit
// announcement that agrees with the recorded list builds no list.
func TestCheckConsistentImplicitAllocFree(t *testing.T) {
	c := NewChecker()
	a := Announcement{Prefix: testPrefix, Path: astypes.NewSeqPath(9, 4)}
	c.Check(a)
	if allocs := testing.AllocsPerRun(100, func() {
		if v, conflict := c.Check(a); v != VerdictConsistent || conflict != nil {
			t.Fatalf("Check = %v, %v", v, conflict)
		}
	}); allocs != 0 {
		t.Errorf("consistent implicit Check: %v allocs, want 0", allocs)
	}
}

// TestCheckConsistentExplicitAllocFree: re-checking an announcement
// whose carried list, in communities or in the dedicated attribute,
// agrees with the recorded list builds no list either.
func TestCheckConsistentExplicitAllocFree(t *testing.T) {
	list := NewList(4, 5)
	for name, a := range map[string]Announcement{
		"communities": {Prefix: testPrefix, Path: astypes.NewSeqPath(9, 4), Communities: list.Communities()},
		"attribute":   {Prefix: testPrefix, Path: astypes.NewSeqPath(9, 5), ListAttr: list.AttrBytes()},
	} {
		c := NewChecker()
		c.Check(a)
		if allocs := testing.AllocsPerRun(100, func() {
			if v, conflict := c.Check(a); v != VerdictConsistent || conflict != nil {
				t.Fatalf("%s: Check = %v, %v", name, v, conflict)
			}
		}); allocs != 0 {
			t.Errorf("consistent %s-list Check: %v allocs, want 0", name, allocs)
		}
	}
}

// TestCheckMatchesEffectiveListRule replays random announcements —
// implicit, community-carried and attribute-carried lists, AS_SET
// origins and empty paths — and holds every verdict and conflict to
// the rule as the paper states it: resolve the effective list
// (EffectiveList, with the attribute first), reject an origin outside
// it, store it on first sight, and compare every later list as a set.
func TestCheckMatchesEffectiveListRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewChecker()
	lists := map[astypes.Prefix]List{}
	prefixes := []astypes.Prefix{testPrefix, astypes.MustPrefix(0x0a000000, 8)}
	for i := 0; i < 5000; i++ {
		a := Announcement{Prefix: prefixes[rng.Intn(len(prefixes))], FromPeer: 7, Span: uint64(i)}
		switch rng.Intn(6) {
		case 0: // no origin
		case 1:
			a.Path = astypes.ASPath{Segments: []astypes.Segment{{Type: astypes.SegSet, ASNs: []astypes.ASN{astypes.ASN(1 + rng.Intn(3)), 2}}}}
		default:
			a.Path = astypes.NewSeqPath(9, astypes.ASN(1+rng.Intn(3)))
		}
		carried := NewList(astypes.ASN(1+rng.Intn(3)), astypes.ASN(1+rng.Intn(3)))
		switch rng.Intn(4) {
		case 0:
			a.Communities = carried.Communities()
		case 1:
			a.ListAttr = carried.AttrBytes()
		}

		origin, _ := a.Path.Origin()
		eff, explicit := CarriedList(a.Communities, a.ListAttr)
		if !explicit {
			eff, _ = EffectiveList(nil, a.Path)
		}
		existing, seen := lists[a.Prefix]
		want := VerdictConsistent
		switch {
		case !eff.Empty() && !eff.Contains(origin):
			want = VerdictOriginNotListed
		case !seen:
			lists[a.Prefix] = eff
		case existing != eff:
			want = VerdictConflict
		}

		v, conflict := c.Check(a)
		if v != want || (conflict != nil) != (want != VerdictConsistent) {
			t.Fatalf("check %d (%+v): got %v, %v; want %v", i, a, v, conflict, want)
		}
		if conflict == nil {
			continue
		}
		if conflict.Existing != existing || conflict.Received != eff ||
			conflict.Origin != origin || conflict.Verdict != want || conflict.Prefix != a.Prefix ||
			conflict.FromPeer != 7 || conflict.Span != uint64(i) || conflict.Path.String() != a.Path.String() {
			t.Fatalf("check %d (%+v): conflict %+v, want existing %v received %v", i, a, conflict, existing, eff)
		}
	}
}

func TestConflictErrorMessage(t *testing.T) {
	conflict := &Conflict{
		Prefix:   testPrefix,
		Existing: NewList(1, 2),
		Received: NewList(52),
		Origin:   52,
		FromPeer: 9,
	}
	msg := conflict.Error()
	for _, want := range []string{"131.179.0.0/16", "{1, 2}", "{52}", "52", "9"} {
		if !contains(msg, want) {
			t.Errorf("Error() = %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
