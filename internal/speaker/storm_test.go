package speaker

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/wire"
)

// rawHandler is the session handler of a hand-driven peer: every UPDATE
// goes to onUpdate (nil discards), which must copy what it keeps.
type rawHandler struct{ onUpdate func(*wire.Update) }

func (h rawHandler) HandleUpdate(_ astypes.ASN, u *wire.Update) {
	if h.onUpdate != nil {
		h.onUpdate(u)
	}
}

func (rawHandler) HandleDown(astypes.ASN, error) {}

// dialRaw peers a hand-driven session, as AS asn, with s over net.Pipe.
// A pipe has no buffer, so a peer whose handler blocks stops the
// speaker's writer at once.
func dialRaw(t *testing.T, s *Speaker, asn astypes.ASN, onUpdate func(*wire.Update)) *session.Session {
	t.Helper()
	near, far := net.Pipe()
	return peerRaw(t, s, near, far, asn, onUpdate)
}

// peerRaw is dialRaw over a given connection pair: the speaker gets
// near, the hand-driven session far.
func peerRaw(t *testing.T, s *Speaker, near, far net.Conn, asn astypes.ASN, onUpdate func(*wire.Update)) *session.Session {
	t.Helper()
	type established struct {
		sess *session.Session
		err  error
	}
	done := make(chan established, 1)
	go func() {
		sess, err := session.Establish(far, session.Config{
			LocalAS: asn, LocalID: uint32(asn), PeerAS: s.AS(), Handler: rawHandler{onUpdate},
		})
		done <- established{sess, err}
	}()
	if _, err := s.AddPeerConn(near, asn); err != nil {
		t.Fatalf("peer AS%s: %v", asn, err)
	}
	e := <-done
	if e.err != nil {
		t.Fatalf("raw session AS%s: %v", asn, e.err)
	}
	t.Cleanup(func() { e.sess.Close() })
	return e.sess
}

// announceAll sends prefixes from sess over path, 250 NLRI per UPDATE
// (well inside the 4 096-byte message limit).
func announceAll(t *testing.T, sess *session.Session, path astypes.ASPath, prefixes []astypes.Prefix) {
	t.Helper()
	for len(prefixes) > 0 {
		n := min(len(prefixes), 250)
		u := &wire.Update{
			Attrs: wire.PathAttrs{
				HasOrigin: true, Origin: wire.OriginIGP, ASPath: path, HasNextHop: true, NextHop: 1,
			},
			NLRI: prefixes[:n],
		}
		if err := sess.SendUpdate(u); err != nil {
			t.Fatalf("announce: %v", err)
		}
		prefixes = prefixes[n:]
	}
}

// slash24s returns n distinct /24s under the /8 at first.
func slash24s(first uint32, n int) []astypes.Prefix {
	out := make([]astypes.Prefix, n)
	for i := range out {
		out[i] = astypes.MustPrefix(first<<24|uint32(i)<<8, 24)
	}
	return out
}

// TestPurgeWithdrawsOnlyTheForgedRoute: once the resolver names the
// valid origin, the drop-mode speaker withdraws the forged route it
// already holds, and nothing else of that peer's.
func TestPurgeWithdrawsOnlyTheForgedRoute(t *testing.T) {
	prefix := astypes.MustPrefix(0x83b30000, 16)
	resolver := ResolverFunc(func(p astypes.Prefix) (core.List, bool) {
		return core.NewList(1), p == prefix
	})
	s := newSpeaker(t, 100, ValidationDrop, resolver)

	// Z records what the speaker tells it about prefix, in order.
	var mu sync.Mutex
	var toZ []string
	dialRaw(t, s, 30, func(u *wire.Update) {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range u.Withdrawn {
			if p == prefix {
				toZ = append(toZ, "withdraw")
			}
		}
		for _, p := range u.NLRI {
			if p == prefix {
				origin, _ := u.Attrs.ASPath.Origin()
				toZ = append(toZ, fmt.Sprintf("origin %d", origin))
			}
		}
	})
	x := dialRaw(t, s, 10, nil)
	y := dialRaw(t, s, 20, nil)

	others := slash24s(10, 1000)
	announceAll(t, x, astypes.NewSeqPath(10, 9), []astypes.Prefix{prefix})
	announceAll(t, x, astypes.NewSeqPath(10), others)
	waitFor(t, func() bool {
		return s.Table().RouteFrom(10, prefix) != nil && s.Table().RouteFrom(10, others[len(others)-1]) != nil
	}, "X's routes at the speaker")

	announceAll(t, y, astypes.NewSeqPath(20, 1), []astypes.Prefix{prefix})
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(toZ) == 3
	}, "three messages for the prefix at Z")

	if r := s.Table().RouteFrom(10, prefix); r != nil {
		t.Errorf("forged route still held: %+v", r)
	}
	if best := s.Table().Best(prefix); best == nil || best.OriginAS() != 1 {
		t.Errorf("best = %+v, want origin 1", best)
	}
	mu.Lock()
	if want := []string{"origin 9", "withdraw", "origin 1"}; fmt.Sprint(toZ) != fmt.Sprint(want) {
		t.Errorf("Z heard %q, want %q", toZ, want)
	}
	mu.Unlock()
	if got := len(s.Table().RoutesFrom(10)); got != len(others) {
		t.Errorf("X's routes held = %d, want %d", got, len(others))
	}
	if got := len(s.Alarms()); got != 1 {
		t.Errorf("alarms = %d, want 1", got)
	}
}

// TestPurgeNeverAdvertisesAForgedRoute: when two peers hold the forged
// origin, the purge removes both before exporting, so no other peer
// hears the second-best forged route in between, whichever order the
// routes are withdrawn in. Repeated because an order-dependent purge
// passes some runs.
func TestPurgeNeverAdvertisesAForgedRoute(t *testing.T) {
	prefix := astypes.MustPrefix(0x83b30000, 16)
	resolver := ResolverFunc(func(p astypes.Prefix) (core.List, bool) {
		return core.NewList(1), p == prefix
	})
	for run := 0; run < 20; run++ {
		t.Run(fmt.Sprint(run), func(t *testing.T) {
			s := newSpeaker(t, 100, ValidationDrop, resolver)
			// W records what the speaker tells it about prefix, in order.
			var mu sync.Mutex
			var toW []string
			dialRaw(t, s, 30, func(u *wire.Update) {
				mu.Lock()
				defer mu.Unlock()
				for _, p := range u.Withdrawn {
					if p == prefix {
						toW = append(toW, "withdraw")
					}
				}
				for _, p := range u.NLRI {
					if p == prefix {
						origin, _ := u.Attrs.ASPath.Origin()
						via := u.Attrs.ASPath.Segments[0].ASNs[1]
						toW = append(toW, fmt.Sprintf("origin %d via %d", origin, via))
					}
				}
			})
			short := dialRaw(t, s, 10, nil)
			valid := dialRaw(t, s, 20, nil)
			long := dialRaw(t, s, 40, nil)

			announceAll(t, short, astypes.NewSeqPath(10, 9), []astypes.Prefix{prefix})
			waitFor(t, func() bool { return s.Table().RouteFrom(10, prefix) != nil }, "AS10's route")
			announceAll(t, long, astypes.NewSeqPath(40, 5, 9), []astypes.Prefix{prefix})
			waitFor(t, func() bool { return s.Table().RouteFrom(40, prefix) != nil }, "AS40's route")
			announceAll(t, valid, astypes.NewSeqPath(20, 1), []astypes.Prefix{prefix})
			const last = "origin 1 via 20"
			waitFor(t, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(toW) > 0 && toW[len(toW)-1] == last
			}, "the valid route at W")

			mu.Lock()
			defer mu.Unlock()
			if want := []string{"origin 9 via 10", "withdraw", last}; fmt.Sprint(toW) != fmt.Sprint(want) {
				t.Errorf("W heard %q, want %q", toW, want)
			}
		})
	}
}

// heldCloseConn closes at once, but holds its first Close caller until
// gate is closed, so that caller's goroutine stays in flight. The first
// caller is claimed before the close takes effect, so a reader woken by
// that close is never the one held.
type heldCloseConn struct {
	net.Conn
	gate   chan struct{}
	closed atomic.Bool
}

func (c *heldCloseConn) Close() error {
	first := c.closed.CompareAndSwap(false, true)
	err := c.Conn.Close()
	if first {
		<-c.gate
	}
	return err
}

// TestSendQueueOverflowTearsPeerDownOnce: when a peer stops reading and
// a burst of withdrawals overflows its send queue, the speaker closes
// that session once, not once per overflowing update, and Close waits
// for that teardown to finish.
func TestSendQueueOverflowTearsPeerDownOnce(t *testing.T) {
	var downMu sync.Mutex
	downs := map[astypes.ASN]int{}
	s, err := New(Config{AS: 100, RouterID: 100, OnPeerDown: func(p astypes.ASN) {
		downMu.Lock()
		downs[p]++
		downMu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	var heard atomic.Int64
	var stall, stalled atomic.Bool
	release := make(chan struct{})
	// Only the teardown goroutine closes B's conn while B is stalled, so
	// it is the caller heldCloseConn keeps until gate opens.
	near, far := net.Pipe()
	held := &heldCloseConn{Conn: near, gate: make(chan struct{})}
	openGate := sync.OnceFunc(func() { close(held.gate) })
	peerRaw(t, s, held, far, 20, func(u *wire.Update) {
		if stall.Load() {
			stalled.Store(true)
			<-release
		}
		heard.Add(int64(len(u.NLRI)))
	})
	t.Cleanup(func() { close(release) }) // before B's session Close waits for its reader
	// The speaker echoes A's routes back to A too.
	var echoed atomic.Int64
	a := dialRaw(t, s, 10, func(u *wire.Update) { echoed.Add(int64(len(u.NLRI))) })
	t.Cleanup(openGate) // runs before the Close cleanups registered above

	// A's table, one UPDATE at a time, so no queue holds more than one
	// UPDATE's worth while B still reads: a queue that fell behind by
	// its length would tear A or B down before B stalls.
	const table = 6000
	prefixes := slash24s(10, table+1)
	for i := 0; i < table; i += 250 {
		announceAll(t, a, astypes.NewSeqPath(10), prefixes[i:i+250])
		want := int64(i + 250)
		waitFor(t, func() bool { return heard.Load() == want && echoed.Load() == want }, "%d routes at A and B", want)
	}

	// B stops reading: its handler blocks on one more route, so B's end
	// stays open until the teardown closes it. Dropping A then
	// withdraws 6 001 routes toward B, more than its send queue holds.
	stall.Store(true)
	announceAll(t, a, astypes.NewSeqPath(10), prefixes[table:])
	waitFor(t, stalled.Load, "B's handler to block")
	a.Close()
	waitFor(t, func() bool {
		downMu.Lock()
		defer downMu.Unlock()
		return downs[10] == 1 && downs[20] == 1
	}, "both peers down")

	// B is down, but its teardown is still in flight: Close must wait
	// for it, as for every goroutine the speaker starts.
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a peer teardown was still running")
	case <-time.After(50 * time.Millisecond):
	}
	openGate()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the teardown finished")
	}

	if got := s.met.teardowns.Value(); got != 1 {
		t.Errorf("speaker_peer_teardowns_total = %d, want 1", got)
	}
	downMu.Lock()
	defer downMu.Unlock()
	if downs[20] != 1 {
		t.Errorf("OnPeerDown(B) fired %d times, want 1", downs[20])
	}
}
