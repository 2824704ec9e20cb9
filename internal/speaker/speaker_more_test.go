package speaker

import (
	"net"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
)

func TestNewSpeakerValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("speaker without AS accepted")
	}
	s, err := New(Config{AS: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.AS() != 1 {
		t.Errorf("AS() = %v", s.AS())
	}
}

func TestWithdrawPropagatesAcrossMesh(t *testing.T) {
	prefix := astypes.MustPrefix(0x0a000000, 8)
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	s2 := newSpeaker(t, 2, ValidationOff, nil)
	s3 := newSpeaker(t, 3, ValidationOff, nil)
	connectPair(t, s1, s2)
	connectPair(t, s2, s3)

	s1.Originate(prefix, core.List{})
	waitFor(t, func() bool { return s3.Table().Best(prefix) != nil }, "route at AS3")

	s1.WithdrawLocal(prefix)
	waitFor(t, func() bool { return s3.Table().Best(prefix) == nil }, "withdrawal at AS3")
}

func TestPeerDownDropsRoutes(t *testing.T) {
	prefix := astypes.MustPrefix(0x0a000000, 8)
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	s2 := newSpeaker(t, 2, ValidationOff, nil)
	connectPair(t, s1, s2)

	s1.Originate(prefix, core.List{})
	waitFor(t, func() bool { return s2.Table().Best(prefix) != nil }, "route at AS2")

	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s2.Table().Best(prefix) == nil }, "route flushed at AS2")
	waitFor(t, func() bool { return len(s2.Peers()) == 0 }, "peer removed at AS2")
}

func TestLateJoinerReceivesFullTable(t *testing.T) {
	p1 := astypes.MustPrefix(0x0a000000, 8)
	p2 := astypes.MustPrefix(0x14000000, 8)
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	s1.Originate(p1, core.List{})
	s1.Originate(p2, core.List{})

	s2 := newSpeaker(t, 2, ValidationOff, nil)
	connectPair(t, s1, s2)
	waitFor(t, func() bool {
		return s2.Table().Best(p1) != nil && s2.Table().Best(p2) != nil
	}, "full table at late joiner")
}

func TestValidationAlarmModeAcceptsButAlarms(t *testing.T) {
	prefix := astypes.MustPrefix(0x0a000000, 8)
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	s2 := newSpeaker(t, 2, ValidationAlarm, nil)
	s3 := newSpeaker(t, 3, ValidationOff, nil)
	connectPair(t, s1, s2)
	connectPair(t, s2, s3)

	s1.Originate(prefix, core.List{})
	waitFor(t, func() bool { return s2.Table().Best(prefix) != nil }, "valid route at AS2")
	s3.Originate(prefix, core.List{}) // hijack from the other side
	waitFor(t, func() bool { return len(s2.Alarms()) > 0 }, "alarm at AS2")
	// Alarm-only mode must still have both routes available (it accepts
	// pending investigation).
	if got := len(s2.Table().RoutesFrom(3)); got != 1 {
		t.Errorf("alarm mode dropped the route: RoutesFrom(3) = %d", got)
	}
}

func TestDropModeWithoutResolverRejectsConservatively(t *testing.T) {
	prefix := astypes.MustPrefix(0x0a000000, 8)
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	s2 := newSpeaker(t, 2, ValidationDrop, nil) // no resolver
	s3 := newSpeaker(t, 3, ValidationOff, nil)
	connectPair(t, s1, s2)
	connectPair(t, s2, s3)

	s1.Originate(prefix, core.List{})
	waitFor(t, func() bool { return s2.Table().Best(prefix) != nil }, "valid route at AS2")
	s3.Originate(prefix, core.List{})
	waitFor(t, func() bool { return len(s2.Alarms()) > 0 }, "alarm at AS2")
	time.Sleep(30 * time.Millisecond)
	// Conservative rejection: the conflicting newcomer is not installed.
	if got := len(s2.Table().RoutesFrom(3)); got != 0 {
		t.Errorf("conflicting route installed without resolution: %d", got)
	}
	if best := s2.Table().Best(prefix); best == nil || best.OriginAS() != 1 {
		t.Errorf("best = %+v", best)
	}
}

func TestDuplicatePeeringRejected(t *testing.T) {
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	s2 := newSpeaker(t, 2, ValidationOff, nil)
	connectPair(t, s1, s2)
	prefix := astypes.MustPrefix(0x0a000000, 8)
	s1.Originate(prefix, core.List{})
	waitFor(t, func() bool { return s2.Table().RouteFrom(1, prefix) != nil }, "route at AS2")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1.Listen(ln)
	if err := s2.Connect(ln.Addr().String(), 1); err == nil {
		t.Error("second session with the same peer accepted")
	}

	// The rejected duplicate's teardown must leave the established
	// peering, and the routes learned over it, in place on both sides.
	// s1 rejects its end on its accept goroutine, so give that teardown
	// time to land before checking.
	time.Sleep(50 * time.Millisecond)
	if !hasPeer(s1, 2) || !hasPeer(s2, 1) {
		t.Errorf("peers after the rejected duplicate: AS1 %v, AS2 %v", s1.Peers(), s2.Peers())
	}
	if s2.Table().RouteFrom(1, prefix) == nil {
		t.Error("AS2 lost the route learned from AS1")
	}
}

func TestConnectFailures(t *testing.T) {
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	if err := s1.Connect("127.0.0.1:1", 2); err == nil { // nothing listens there
		t.Error("dial to dead address succeeded")
	}
	// AS mismatch: expect AS 9, get AS 2.
	s2 := newSpeaker(t, 2, ValidationOff, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s2.Listen(ln)
	if err := s1.Connect(ln.Addr().String(), 9); err == nil {
		t.Error("AS mismatch accepted")
	}
}

func TestLoopPreventionAcrossCycle(t *testing.T) {
	// Triangle 1-2-3: routes must stabilize without AS-path loops.
	prefix := astypes.MustPrefix(0x0a000000, 8)
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	s2 := newSpeaker(t, 2, ValidationOff, nil)
	s3 := newSpeaker(t, 3, ValidationOff, nil)
	connectPair(t, s1, s2)
	connectPair(t, s2, s3)
	connectPair(t, s3, s1)

	s1.Originate(prefix, core.List{})
	waitFor(t, func() bool {
		b2, b3 := s2.Table().Best(prefix), s3.Table().Best(prefix)
		return b2 != nil && b3 != nil
	}, "convergence on the triangle")
	time.Sleep(50 * time.Millisecond)
	for _, s := range []*Speaker{s2, s3} {
		best := s.Table().Best(prefix)
		if best.Path.Contains(s.AS()) {
			t.Errorf("AS%s best path loops: %v", s.AS(), best.Path)
		}
		if best.Path.Hops() != 1 {
			t.Errorf("AS%s should be one hop from the origin: %v", s.AS(), best.Path)
		}
	}
}

func TestMOASListTransitsVerbatim(t *testing.T) {
	prefix := astypes.MustPrefix(0x0a000000, 8)
	list := core.NewList(1, 7)
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	s2 := newSpeaker(t, 2, ValidationOff, nil)
	s3 := newSpeaker(t, 3, ValidationOff, nil)
	connectPair(t, s1, s2)
	connectPair(t, s2, s3)

	s1.Originate(prefix, list)
	waitFor(t, func() bool { return s3.Table().Best(prefix) != nil }, "route at AS3")
	got, has := core.FromCommunities(s3.Table().Best(prefix).Communities)
	if !has || got != list {
		t.Errorf("MOAS list at AS3 = %v, %v", got, has)
	}
}
