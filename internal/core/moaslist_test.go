package core

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"repro/internal/astypes"
)

// fuzzMembers reads 0 to 5 list members from fuzz input: a count
// (mod 6), then that many 4-octet big-endian ASNs, as far as the input
// lasts.
func fuzzMembers(data []byte) []astypes.ASN {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0] % 6)
	data = data[1:]
	var out []astypes.ASN
	for ; n > 0 && len(data) >= 4; n-- {
		out = append(out, astypes.ASN(binary.BigEndian.Uint32(data)))
		data = data[4:]
	}
	return out
}

// fuzzInput is the fuzzMembers input that reads back as members.
func fuzzInput(members ...astypes.ASN) []byte {
	out := []byte{byte(len(members))}
	for _, a := range members {
		out = binary.BigEndian.AppendUint32(out, uint32(a))
	}
	return out
}

// FuzzListMatchesReference holds List to a sorted, deduplicated slice
// of its members: every accessor and encoding agrees with the slice,
// the community and attribute encodings read back through CarriedList,
// and == is set equality.
func FuzzListMatchesReference(f *testing.F) {
	f.Add(fuzzInput(), fuzzInput())
	f.Add(fuzzInput(4), fuzzInput(4, 4))
	f.Add(fuzzInput(226, 4), fuzzInput(4, 226))
	f.Add(fuzzInput(5, 1, 5, 3), fuzzInput(1, 3, 5))
	f.Add(fuzzInput(3, 2, 1, 2, 3), fuzzInput(1, 2))
	f.Add(fuzzInput(70000, 4200000000, 1), fuzzInput(1, 70000, 4200000000, 70000))
	f.Add(fuzzInput(0, 65535, 65536), fuzzInput(0))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ma, mb := fuzzMembers(a), fuzzMembers(b)
		la, lb := NewList(ma...), NewList(mb...)
		ra, rb := reference(ma), reference(mb)
		checkAgainst(t, la, ra)
		checkAgainst(t, lb, rb)
		if (la == lb) != slices.Equal(ra, rb) {
			t.Errorf("%v == %v is %v, want set equality %v", la, lb, la == lb, slices.Equal(ra, rb))
		}
	})
}

// reference is the sorted, deduplicated member set.
func reference(members []astypes.ASN) []astypes.ASN {
	ref := slices.Clone(members)
	slices.Sort(ref)
	return slices.Compact(ref)
}

func checkAgainst(t *testing.T, l List, ref []astypes.ASN) {
	t.Helper()
	if l.Len() != len(ref) || l.Empty() != (len(ref) == 0) {
		t.Fatalf("%v: Len %d, Empty %v; want %d members", ref, l.Len(), l.Empty(), len(ref))
	}
	if got := l.Origins(); !slices.Equal(got, ref) {
		t.Errorf("%v: Origins = %v", ref, got)
	}
	reversed := slices.Clone(ref)
	slices.Reverse(reversed)
	if NewList(ref...) != l || NewList(reversed...) != l {
		t.Errorf("%v: list depends on member order", ref)
	}
	for _, a := range ref {
		for _, probe := range []astypes.ASN{a - 1, a, a + 1} {
			if l.Contains(probe) != slices.Contains(ref, probe) {
				t.Errorf("%v: Contains(%d) = %v", ref, probe, l.Contains(probe))
			}
		}
	}
	var comms []astypes.Community
	var attr []byte
	var narrow, truncated []astypes.ASN
	var text []string
	for _, a := range ref {
		comms = append(comms, astypes.NewCommunity(a, MLVal))
		attr = binary.BigEndian.AppendUint16(attr, uint16(a))
		narrow = append(narrow, astypes.NewCommunity(a, MLVal).ASN())
		truncated = append(truncated, astypes.ASN(uint16(a)))
		text = append(text, a.String())
	}
	if got := l.Communities(); !slices.Equal(got, comms) {
		t.Errorf("%v: Communities = %v, want %v", ref, got, comms)
	}
	if got := l.AttrBytes(); !slices.Equal(got, attr) || (got == nil) != (attr == nil) {
		t.Errorf("%v: AttrBytes = %x, want %x", ref, got, attr)
	}
	if got, want := l.String(), "{"+strings.Join(text, ", ")+"}"; got != want {
		t.Errorf("%v: String = %q, want %q", ref, got, want)
	}
	// The encodings carry 2-octet members: a wider one reads back as
	// AS_TRANS from a community and truncated from the attribute.
	if got, ok := CarriedList(l.Communities(), nil); ok != !l.Empty() || got != NewList(narrow...) {
		t.Errorf("%v: CarriedList(communities) = %v, %v", ref, got, ok)
	}
	if got, ok := CarriedList(nil, l.AttrBytes()); ok != !l.Empty() || got != NewList(truncated...) {
		t.Errorf("%v: CarriedList(attribute) = %v, %v", ref, got, ok)
	}
}

// listSink keeps the lists TestSmallListsAllocFree builds reachable,
// so none of them can live on the stack.
var listSink List

// TestSmallListsAllocFree: a list of at most two members, and the
// consistent first sight of an implicit announcement, allocate nothing.
func TestSmallListsAllocFree(t *testing.T) {
	a := Announcement{Prefix: testPrefix, Path: astypes.NewSeqPath(9, 4)}
	for name, fn := range map[string]func(){
		"ImplicitList": func() { listSink = ImplicitList(4) },
		"NewList(1)":   func() { listSink = NewList(4) },
		"NewList(2)":   func() { listSink = NewList(226, 4) },
		"first-sight Check": func() {
			var v Verdict
			var conflict *Conflict
			if v, conflict, listSink = Check(List{}, false, a); v != VerdictConsistent || conflict != nil {
				t.Fatalf("Check = %v, %v", v, conflict)
			}
		},
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs, want 0", name, allocs)
		}
	}
}
