package core

import (
	"testing"

	"repro/internal/astypes"
)

func TestAttrBytesRoundTrip(t *testing.T) {
	tests := []List{
		NewList(1),
		NewList(1, 2),
		NewList(65535, 1, 700),
	}
	for _, give := range tests {
		got, err := ListFromAttrBytes(give.AttrBytes())
		if err != nil || got != give {
			t.Errorf("roundtrip %v = %v (%v)", give, got, err)
		}
	}
	if (List{}).AttrBytes() != nil {
		t.Error("empty list should encode to nil")
	}
}

func TestListFromAttrBytesErrors(t *testing.T) {
	for _, bad := range [][]byte{nil, {}, {1}, {1, 2, 3}} {
		if _, err := ListFromAttrBytes(bad); err == nil {
			t.Errorf("ListFromAttrBytes(%v) should fail", bad)
		}
	}
	// Duplicates in the wire form canonicalize.
	dup := append(NewList(4).AttrBytes(), NewList(4).AttrBytes()...)
	got, err := ListFromAttrBytes(dup)
	if err != nil || got != NewList(4) {
		t.Errorf("duplicate members = %v (%v)", got, err)
	}
}

func TestCheckerHonorsAttrList(t *testing.T) {
	c := NewChecker()
	attr := NewList(1, 2)
	// The attribute encoding takes precedence over communities.
	first := Announcement{
		Prefix:      testPrefix,
		Path:        astypes.NewSeqPath(9, 1),
		Communities: NewList(7).Communities(), // contradicting communities
		ListAttr:    attr.AttrBytes(),
	}
	v, _ := c.Check(first)
	if v != VerdictConsistent {
		t.Fatalf("first attr-list announcement: %v", v)
	}
	if _, _, l := Check(List{}, false, first); l != attr {
		t.Errorf("recorded list = %v, want the attribute one", l)
	}
	// An attribute-encoded hijack conflicts.
	v, _ = c.Check(Announcement{
		Prefix:   testPrefix,
		Path:     astypes.NewSeqPath(9, 52),
		ListAttr: NewList(52).AttrBytes(),
	})
	if v != VerdictConflict {
		t.Errorf("attr-encoded hijack verdict = %v", v)
	}
	// An undecodable attribute falls back to the communities.
	v, _ = c.Check(Announcement{
		Prefix:      testPrefix,
		Path:        astypes.NewSeqPath(9, 2),
		Communities: attr.Communities(),
		ListAttr:    []byte{0},
	})
	if v != VerdictConsistent {
		t.Errorf("odd-length attribute with valid communities: %v", v)
	}
}

func TestVerdictStrings(t *testing.T) {
	tests := map[Verdict]string{
		VerdictUnset:           "unset",
		VerdictConsistent:      "consistent",
		VerdictConflict:        "conflict",
		VerdictOriginNotListed: "origin-not-listed",
		Verdict(99):            "unknown",
	}
	for v, want := range tests {
		if v.String() != want {
			t.Errorf("Verdict(%d).String() = %q", v, v.String())
		}
	}
}

func TestEmptyListAccessors(t *testing.T) {
	var l List
	if l.Origins() != nil {
		t.Error("empty Origins should be nil")
	}
	if l.Communities() != nil {
		t.Error("empty Communities should be nil")
	}
	if !l.Empty() || l.Len() != 0 {
		t.Error("zero list should be empty")
	}
}
