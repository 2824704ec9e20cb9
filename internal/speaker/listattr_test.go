package speaker

import (
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/wire"
)

// TestAttributeEncodedListTransitsUnmodifiedSpeakers: the dedicated
// MOAS-list attribute must cross a plain (non-validating, unmodified)
// transit speaker verbatim and still be checkable downstream.
func TestAttributeEncodedListTransitsUnmodifiedSpeakers(t *testing.T) {
	prefix := astypes.MustPrefix(0x0a000000, 8)
	list := core.NewList(1, 7)

	s1, err := New(Config{AS: 1, RouterID: 1, ListEncoding: EncodeAttribute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close() })
	s2 := newSpeaker(t, 2, ValidationOff, nil) // plain transit
	s3 := newSpeaker(t, 3, ValidationAlarm, nil)
	connectPair(t, s1, s2)
	connectPair(t, s2, s3)

	s1.Originate(prefix, list)
	waitFor(t, func() bool { return s3.Table().Best(prefix) != nil }, "route at AS3")

	best := s3.Table().Best(prefix)
	raw := wire.FindUnknownAttr(best.Unknown, core.ListAttrCode)
	if raw == nil {
		t.Fatal("MOAS-list attribute lost in transit")
	}
	got, err := core.ListFromAttrBytes(raw)
	if err != nil || got != list {
		t.Errorf("attribute list at AS3 = %v (%v)", got, err)
	}
	// No communities were used.
	if _, has := core.FromCommunities(best.Communities); has {
		t.Error("community encoding present despite attribute mode")
	}
}

// TestAttributeEncodedHijackDetected: a hijack against an
// attribute-encoded valid list raises an alarm and is dropped.
func TestAttributeEncodedHijackDetected(t *testing.T) {
	prefix := astypes.MustPrefix(0x0a000000, 8)
	valid := core.NewList(1)
	resolver := ResolverFunc(func(p astypes.Prefix) (core.List, bool) {
		return valid, p == prefix
	})

	s1, err := New(Config{AS: 1, RouterID: 1, ListEncoding: EncodeAttribute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s1.Close() })
	s2 := newSpeaker(t, 2, ValidationDrop, resolver)
	s4 := newSpeaker(t, 4, ValidationOff, nil)
	connectPair(t, s1, s2)
	connectPair(t, s2, s4)

	s1.Originate(prefix, valid)
	waitFor(t, func() bool { return s4.Table().Best(prefix) != nil }, "valid route at AS4")

	s4.Originate(prefix, core.List{})
	waitFor(t, func() bool { return len(s2.Alarms()) > 0 }, "alarm at AS2")
	time.Sleep(30 * time.Millisecond)
	if best := s2.Table().Best(prefix); best == nil || best.OriginAS() != 1 {
		t.Errorf("AS2 best = %+v", best)
	}
}

func TestListAttrBytesRoundTrip(t *testing.T) {
	tests := []core.List{
		core.NewList(1),
		core.NewList(1, 2),
		core.NewList(65535, 1, 700),
	}
	for _, give := range tests {
		got, err := core.ListFromAttrBytes(give.AttrBytes())
		if err != nil || got != give {
			t.Errorf("roundtrip %v = %v (%v)", give, got, err)
		}
	}
	if (core.List{}).AttrBytes() != nil {
		t.Error("empty list should encode to nil")
	}
	for _, bad := range [][]byte{{}, {1}, {1, 2, 3}} {
		if _, err := core.ListFromAttrBytes(bad); err == nil {
			t.Errorf("ListFromAttrBytes(%v) should fail", bad)
		}
	}
}
