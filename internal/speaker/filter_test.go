package speaker

import (
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
)

func TestImportDenyFilter(t *testing.T) {
	bogon := astypes.MustPrefix(0x0a000000, 8)     // 10.0.0.0/8
	bogonSub := astypes.MustPrefix(0x0a010000, 16) // inside the bogon
	legit := astypes.MustPrefix(0x83b30000, 16)

	s1 := newSpeaker(t, 1, ValidationOff, nil)
	filtering, err := New(Config{
		AS:         2,
		RouterID:   2,
		ImportDeny: []astypes.Prefix{bogon},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { filtering.Close() })
	connectPair(t, s1, filtering)

	s1.Originate(bogon, core.List{})
	s1.Originate(bogonSub, core.List{})
	s1.Originate(legit, core.List{})
	waitFor(t, func() bool { return filtering.Table().Best(legit) != nil }, "legit route")
	time.Sleep(30 * time.Millisecond)
	if filtering.Table().Best(bogon) != nil {
		t.Error("denied prefix installed")
	}
	if filtering.Table().Best(bogonSub) != nil {
		t.Error("more-specific of denied prefix installed")
	}
	if got := filtering.MIB().Counters.RoutesRejected; got < 2 {
		t.Errorf("RoutesRejected = %d, want >= 2", got)
	}
}

func TestAdvertisedTo(t *testing.T) {
	p1 := astypes.MustPrefix(0x0a000000, 8)
	p2 := astypes.MustPrefix(0x14000000, 8)
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	s2 := newSpeaker(t, 2, ValidationOff, nil)
	connectPair(t, s1, s2)

	s1.Originate(p1, core.List{})
	s1.Originate(p2, core.List{})
	waitFor(t, func() bool { return len(s1.AdvertisedTo(2)) == 2 }, "adj-rib-out populated")
	got := s1.AdvertisedTo(2)
	if got[0] != p1 || got[1] != p2 {
		t.Errorf("AdvertisedTo = %v", got)
	}
	s1.WithdrawLocal(p1)
	waitFor(t, func() bool { return len(s1.AdvertisedTo(2)) == 1 }, "withdrawal reflected")
	if s1.AdvertisedTo(99) != nil {
		t.Error("unknown peer should be nil")
	}
}
