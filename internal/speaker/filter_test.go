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

// TestAdvertisedTo: the Adj-RIB-Out view lists what is announced to a
// peer, and a withdrawal removes its prefix from the set itself, so
// after every announced prefix is withdrawn the MIB counts 0 and the
// set holds nothing.
func TestAdvertisedTo(t *testing.T) {
	const n = 16
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	s2 := newSpeaker(t, 2, ValidationOff, nil)
	connectPair(t, s1, s2)

	prefixes := make([]astypes.Prefix, n)
	for i := range prefixes {
		prefixes[i] = astypes.MustPrefix(uint32(10+i)<<24, 8)
		s1.Originate(prefixes[i], core.List{})
	}
	waitFor(t, func() bool { return len(s1.AdvertisedTo(2)) == n }, "adj-rib-out populated")
	got := s1.AdvertisedTo(2)
	for i, p := range prefixes {
		if got[i] != p {
			t.Fatalf("AdvertisedTo = %v", got)
		}
	}
	s1.WithdrawLocal(prefixes[0])
	waitFor(t, func() bool { return len(s1.AdvertisedTo(2)) == n-1 }, "withdrawal reflected")
	for _, p := range prefixes[1:] {
		s1.WithdrawLocal(p)
	}
	waitFor(t, func() bool { return len(s1.AdvertisedTo(2)) == 0 }, "every withdrawal reflected")
	for _, e := range s1.MIB().Peers {
		if e.AS == 2 && e.Advertised != 0 {
			t.Errorf("MIB advertisedPrefixes = %d after withdrawing everything, want 0", e.Advertised)
		}
	}
	s1.mu.Lock()
	held := len(s1.peerLocked(2).advertised)
	s1.mu.Unlock()
	if held != 0 {
		t.Errorf("advertised set holds %d entries after withdrawing everything, want 0", held)
	}
	if s1.AdvertisedTo(99) != nil {
		t.Error("unknown peer should be nil")
	}
}
