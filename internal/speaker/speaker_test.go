package speaker

import (
	"net"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
)

// connectPair wires two speakers over an in-process TCP connection.
func connectPair(t *testing.T, a, b *Speaker) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	a.Listen(ln)
	if err := b.Connect(ln.Addr().String(), a.AS()); err != nil {
		t.Fatalf("connect AS%s->AS%s: %v", b.AS(), a.AS(), err)
	}
	waitFor(t, func() bool {
		return hasPeer(a, b.AS()) && hasPeer(b, a.AS())
	}, "peering AS%s<->AS%s", a.AS(), b.AS())
}

func hasPeer(s *Speaker, asn astypes.ASN) bool {
	for _, p := range s.Peers() {
		if p == asn {
			return true
		}
	}
	return false
}

func waitFor(t *testing.T, cond func() bool, format string, args ...any) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for: "+format, args...)
}

func newSpeaker(t *testing.T, asn astypes.ASN, mode ValidationMode, res core.Resolver) *Speaker {
	t.Helper()
	s, err := New(Config{
		AS:         asn,
		RouterID:   uint32(asn),
		Validation: mode,
		Resolver:   res,
	})
	if err != nil {
		t.Fatalf("new speaker AS%s: %v", asn, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestLiveMeshPropagationAndHijackDetection(t *testing.T) {
	prefix := astypes.MustPrefix(0x0a000000, 8) // 10.0.0.0/8
	valid := core.NewList(1)
	resolver := ResolverFunc(func(p astypes.Prefix) (core.List, bool) {
		if p == prefix {
			return valid, true
		}
		return core.List{}, false
	})

	// AS1 -- AS2 -- AS3 -- AS4(attacker)
	s1 := newSpeaker(t, 1, ValidationOff, nil)
	s2 := newSpeaker(t, 2, ValidationDrop, resolver)
	s3 := newSpeaker(t, 3, ValidationDrop, resolver)
	s4 := newSpeaker(t, 4, ValidationOff, nil)
	connectPair(t, s1, s2)
	connectPair(t, s2, s3)
	connectPair(t, s3, s4)

	s1.Originate(prefix, core.List{})
	waitFor(t, func() bool {
		r := s4.Table().Best(prefix)
		return r != nil && r.OriginAS() == 1
	}, "valid route at AS4")

	// AS4 hijacks the prefix. AS3 must detect and refuse it; AS2 and
	// AS1's best routes stay on the valid origin.
	s4.Originate(prefix, core.List{})
	waitFor(t, func() bool { return len(s3.Alarms()) > 0 }, "alarm at AS3")

	time.Sleep(50 * time.Millisecond) // allow any (wrong) propagation
	for _, s := range []*Speaker{s1, s2, s3} {
		r := s.Table().Best(prefix)
		if r == nil || r.OriginAS() != 1 {
			t.Errorf("AS%s best route = %+v, want origin AS1", s.AS(), r)
		}
	}
	if got, want := s3.AlarmCount(), len(s3.Alarms()); got != uint64(want) {
		t.Errorf("AS3 AlarmCount = %d, len(Alarms()) = %d", got, want)
	}
}

// ResolverFunc adapts a function to core.Resolver.
type ResolverFunc func(astypes.Prefix) (core.List, bool)

// ValidOrigins implements core.Resolver.
func (f ResolverFunc) ValidOrigins(p astypes.Prefix) (core.List, bool) { return f(p) }
