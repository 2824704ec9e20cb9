package session

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// collector is a Handler that records events.
type collector struct {
	mu      sync.Mutex
	updates []*wire.Update
	downs   []error
	downCh  chan struct{}
}

func newCollector() *collector {
	return &collector{downCh: make(chan struct{}, 1)}
}

func (c *collector) HandleUpdate(peer astypes.ASN, u *wire.Update) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.updates = append(c.updates, u)
}

func (c *collector) HandleDown(peer astypes.ASN, err error) {
	c.mu.Lock()
	c.downs = append(c.downs, err)
	c.mu.Unlock()
	select {
	case c.downCh <- struct{}{}:
	default:
	}
}

func (c *collector) updateCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.updates)
}

// establishPair runs the handshake on both ends of a pipe concurrently.
func establishPair(t *testing.T, cfgA, cfgB Config) (*Session, *Session, *collector, *collector) {
	t.Helper()
	ca, cb := net.Pipe()
	ha, hb := newCollector(), newCollector()
	cfgA.Handler, cfgB.Handler = ha, hb
	var (
		sa, sb     *Session
		errA, errB error
		wg         sync.WaitGroup
	)
	wg.Add(2)
	go func() { defer wg.Done(); sa, errA = Establish(ca, cfgA) }()
	go func() { defer wg.Done(); sb, errB = Establish(cb, cfgB) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("establish: %v / %v", errA, errB)
	}
	t.Cleanup(func() {
		sa.Close()
		sb.Close()
	})
	return sa, sb, ha, hb
}

func TestHandshakeAndUpdateExchange(t *testing.T) {
	sa, sb, _, hb := establishPair(t,
		Config{LocalAS: 1, LocalID: 11, PeerAS: 2},
		Config{LocalAS: 2, LocalID: 22, PeerAS: 1},
	)
	if sa.State() != StateEstablished || sb.State() != StateEstablished {
		t.Fatalf("states: %v / %v", sa.State(), sb.State())
	}
	if sa.PeerAS() != 2 || sb.PeerAS() != 1 {
		t.Errorf("peer ASNs: %v / %v", sa.PeerAS(), sb.PeerAS())
	}
	if sa.PeerID() != 22 || sb.PeerID() != 11 {
		t.Errorf("peer IDs: %v / %v", sa.PeerID(), sb.PeerID())
	}
	u := &wire.Update{
		Attrs: wire.PathAttrs{HasOrigin: true, HasNextHop: true, ASPath: astypes.NewSeqPath(1)},
		NLRI:  []astypes.Prefix{astypes.MustPrefix(0x0a000000, 8)},
	}
	if err := sa.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return hb.updateCount() == 1 }, "update delivery")
}

func TestPeerASMismatchRejected(t *testing.T) {
	ca, cb := net.Pipe()
	var wg sync.WaitGroup
	var errA error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errA = Establish(ca, Config{LocalAS: 1, PeerAS: 99, Handler: newCollector()})
	}()
	go func() {
		defer wg.Done()
		s, err := Establish(cb, Config{LocalAS: 2, PeerAS: 1, Handler: newCollector()})
		if err == nil {
			s.Close()
		}
	}()
	wg.Wait()
	if !errors.Is(errA, ErrPeerASMismatch) {
		t.Errorf("err = %v, want ErrPeerASMismatch", errA)
	}
}

func TestNilHandlerRejected(t *testing.T) {
	ca, cb := net.Pipe()
	defer cb.Close()
	if _, err := Establish(ca, Config{LocalAS: 1}); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestHoldTimeNegotiation(t *testing.T) {
	sa, sb, _, _ := establishPair(t,
		Config{LocalAS: 1, HoldTime: 30 * time.Second},
		Config{LocalAS: 2, HoldTime: 12 * time.Second},
	)
	if sa.HoldTime() != 12*time.Second || sb.HoldTime() != 12*time.Second {
		t.Errorf("negotiated hold times: %v / %v", sa.HoldTime(), sb.HoldTime())
	}
}

func TestKeepalivesMaintainSession(t *testing.T) {
	sa, sb, ha, _ := establishPair(t,
		Config{LocalAS: 1, HoldTime: 300 * time.Millisecond},
		Config{LocalAS: 2, HoldTime: 300 * time.Millisecond},
	)
	// Hold time is 300ms; surviving 4x that proves keepalives flow.
	time.Sleep(1200 * time.Millisecond)
	if sa.State() != StateEstablished || sb.State() != StateEstablished {
		t.Errorf("session died despite keepalives: %v / %v (downs=%v)",
			sa.State(), sb.State(), ha.downs)
	}
}

func TestHoldTimerExpiry(t *testing.T) {
	// Peer B stops participating after the handshake (its goroutines are
	// torn down without a close); A's hold timer must fire.
	ca, cb := net.Pipe()
	ha := newCollector()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Minimal scripted peer: answer OPEN + KEEPALIVE, then go mute.
		if _, err := wire.ReadMessage(cb); err != nil {
			return
		}
		_ = wire.WriteMessage(cb, &wire.Open{Version: wire.Version4, AS: 2, HoldTime: 3, BGPID: 2})
		_ = wire.WriteMessage(cb, &wire.Keepalive{})
		if _, err := wire.ReadMessage(cb); err != nil {
			return
		}
		// Mute: read nothing, send nothing, keep the conn open.
		select {}
	}()
	sa, err := Establish(ca, Config{LocalAS: 1, HoldTime: 3 * time.Second, Handler: ha})
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	defer sa.Close()
	select {
	case <-ha.downCh:
	case <-time.After(10 * time.Second):
		t.Fatal("hold timer never fired")
	}
	if !errors.Is(sa.Err(), ErrHoldTimerExpired) {
		t.Errorf("session error = %v, want ErrHoldTimerExpired", sa.Err())
	}
}

// TestHoldTimerBoundsDribbledMessage: the hold time bounds the delivery
// of a whole message, not the gap between reads. A peer that sends a
// valid header and then one body byte per second is dropped within the
// hold time, though every single read returns well inside it.
func TestHoldTimerBoundsDribbledMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a 3 s hold timer")
	}
	const hold = 3 * time.Second
	ca, cb := net.Pipe()
	ha := newCollector()
	first := make(chan time.Time, 1)
	go func() {
		if _, err := wire.ReadMessage(cb); err != nil {
			return
		}
		_ = wire.WriteMessage(cb, &wire.Open{Version: wire.Version4, AS: 2, HoldTime: uint16(hold / time.Second), BGPID: 2})
		_ = wire.WriteMessage(cb, &wire.Keepalive{})
		// Drain the session's keepalives so its writer never blocks.
		go func() { _, _ = io.Copy(io.Discard, cb) }()
		frame, err := wire.Encode(&wire.Update{
			Attrs: wire.PathAttrs{HasOrigin: true, HasNextHop: true, ASPath: astypes.NewSeqPath(2)},
			NLRI:  []astypes.Prefix{astypes.MustPrefix(0x0a000000, 8)},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := cb.Write(frame[:wire.HeaderLen]); err != nil {
			return
		}
		first <- time.Now()
		for _, b := range frame[wire.HeaderLen:] {
			time.Sleep(time.Second)
			if _, err := cb.Write([]byte{b}); err != nil {
				return // the session hung up
			}
		}
		t.Error("the whole dribbled UPDATE was delivered")
	}()
	sa, err := Establish(ca, Config{LocalAS: 1, HoldTime: hold, Handler: ha})
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	defer sa.Close()
	var start time.Time
	select {
	case start = <-first:
	case <-time.After(5 * time.Second):
		t.Fatal("scripted peer never sent the header")
	}
	select {
	case <-ha.downCh:
	case <-time.After(10 * time.Second):
		t.Fatal("hold timer never fired")
	}
	if took := time.Since(start); took > hold+time.Second {
		t.Errorf("session went down %v after the first byte, want <= %v", took, hold+time.Second)
	}
	if !errors.Is(sa.Err(), ErrHoldTimerExpired) {
		t.Errorf("session error = %v, want ErrHoldTimerExpired", sa.Err())
	}
	if n := ha.updateCount(); n != 0 {
		t.Errorf("handler saw %d updates, want 0", n)
	}
}

func TestNotificationTakesSessionDown(t *testing.T) {
	sa, sb, ha, _ := establishPair(t,
		Config{LocalAS: 1},
		Config{LocalAS: 2},
	)
	_ = sb
	sb.sendNotification(wire.ErrCodeCease, 0)
	select {
	case <-ha.downCh:
	case <-time.After(5 * time.Second):
		t.Fatal("NOTIFICATION did not take the session down")
	}
	var ne *NotificationError
	if !errors.As(sa.Err(), &ne) || ne.Code != wire.ErrCodeCease {
		t.Errorf("session error = %v", sa.Err())
	}
}

func TestCloseIsIdempotentAndSignalsPeer(t *testing.T) {
	sa, sb, _, hb := establishPair(t,
		Config{LocalAS: 1},
		Config{LocalAS: 2},
	)
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hb.downCh:
	case <-time.After(5 * time.Second):
		t.Fatal("peer never noticed the close")
	}
	if sb.State() != StateClosed && sb.State() != StateEstablished {
		// The reader may still be delivering the down event; State will
		// settle to Closed.
		waitCond(t, func() bool { return sb.State() == StateClosed }, "peer close")
	}
	if err := sa.SendUpdate(&wire.Update{}); !errors.Is(err, ErrClosed) {
		t.Errorf("SendUpdate after close = %v, want ErrClosed", err)
	}
}

func TestStateString(t *testing.T) {
	states := map[State]string{
		StateIdle:        "Idle",
		StateOpenSent:    "OpenSent",
		StateOpenConfirm: "OpenConfirm",
		StateEstablished: "Established",
		StateClosed:      "Closed",
		State(99):        "Unknown",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q", s, s.String())
		}
	}
}

func waitCond(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}
