package session

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// scriptedHandshake answers the OPEN + KEEPALIVE exchange on conn so a
// real Session reaches Established against a hand-driven peer.
func scriptedHandshake(t *testing.T, conn net.Conn, as astypes.ASN) {
	t.Helper()
	if _, err := wire.ReadMessage(conn); err != nil {
		t.Errorf("scripted peer: read OPEN: %v", err)
		return
	}
	if err := wire.WriteMessage(conn, &wire.Open{
		Version: wire.Version4, AS: as, HoldTime: 90, BGPID: uint32(as),
	}); err != nil {
		t.Errorf("scripted peer: send OPEN: %v", err)
		return
	}
	if err := wire.WriteMessage(conn, &wire.Keepalive{}); err != nil {
		t.Errorf("scripted peer: send KEEPALIVE: %v", err)
		return
	}
	if _, err := wire.ReadMessage(conn); err != nil {
		t.Errorf("scripted peer: read KEEPALIVE: %v", err)
	}
}

// establishAgainstScript returns an Established session whose peer is
// the returned conn, driven by the test.
func establishAgainstScript(t *testing.T) (*Session, net.Conn, *collector) {
	t.Helper()
	ca, cb := net.Pipe()
	h := newCollector()
	done := make(chan struct{})
	go func() {
		defer close(done)
		scriptedHandshake(t, cb, 2)
	}()
	s, err := Establish(ca, Config{LocalAS: 1, Handler: h})
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	<-done
	t.Cleanup(func() {
		s.Close()
		cb.Close()
	})
	return s, cb, h
}

func TestOpenInEstablishedIsFatal(t *testing.T) {
	s, peer, h := establishAgainstScript(t)
	// The violator must be reading when the NOTIFICATION is emitted
	// (net.Pipe is synchronous), so arm the read first.
	notif := readMessageAsync(peer)
	// Protocol violation: a second OPEN after Established.
	if err := wire.WriteMessage(peer, &wire.Open{
		Version: wire.Version4, AS: 2, HoldTime: 90, BGPID: 2,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.downCh:
	case <-time.After(5 * time.Second):
		t.Fatal("session survived an OPEN in Established")
	}
	if s.State() != StateClosed {
		t.Errorf("state = %v", s.State())
	}
	select {
	case got := <-notif:
		if got.err != nil {
			t.Fatalf("read NOTIFICATION: %v", got.err)
		}
		if n, ok := got.msg.(*wire.Notification); !ok || n.Code != wire.ErrCodeFSM {
			t.Errorf("got %v, want FSM NOTIFICATION", got.msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no NOTIFICATION arrived")
	}
}

// TestMalformedOpenKeepsMessageError: a handshake that fails on the
// peer's OPEN wraps the codec's *wire.MessageError, so the caller can
// still read the NOTIFICATION code and subcode it calls for.
func TestMalformedOpenKeepsMessageError(t *testing.T) {
	ca, cb := net.Pipe()
	defer cb.Close()
	go func() {
		if _, err := wire.ReadMessage(cb); err != nil {
			return
		}
		// Version 3 decodes to an OPEN error (unsupported version).
		_ = wire.WriteMessage(cb, &wire.Open{Version: 3, AS: 2, HoldTime: 90, BGPID: 2})
	}()
	_, err := Establish(ca, Config{LocalAS: 1, Handler: newCollector()})
	var me *wire.MessageError
	if !errors.As(err, &me) || me.Code != wire.ErrCodeOpen || me.Subcode != wire.SubUnsupportedVersion {
		t.Fatalf("Establish error = %v, want a wrapped unsupported-version MessageError", err)
	}
}

type asyncMsg struct {
	msg wire.Message
	err error
}

func readMessageAsync(conn net.Conn) <-chan asyncMsg {
	ch := make(chan asyncMsg, 1)
	go func() {
		m, err := wire.ReadMessage(conn)
		ch <- asyncMsg{msg: m, err: err}
	}()
	return ch
}

func TestMalformedUpdateIsFatalWithNotification(t *testing.T) {
	s, peer, h := establishAgainstScript(t)
	// Craft an UPDATE with a duplicate ORIGIN attribute.
	body := []byte{0, 0}
	attr := []byte{
		0x40 /* transitive */, 1 /* ORIGIN */, 1, 0,
		0x40, 1, 1, 0,
	}
	body = append(body, byte(len(attr)>>8), byte(len(attr)))
	body = append(body, attr...)
	full := make([]byte, 19, 19+len(body))
	for i := 0; i < 16; i++ {
		full[i] = 0xff
	}
	full[18] = byte(wire.MsgUpdate)
	full = append(full, body...)
	full[16] = byte(len(full) >> 8)
	full[17] = byte(len(full))
	notif := readMessageAsync(peer)
	if _, err := peer.Write(full); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.downCh:
	case <-time.After(5 * time.Second):
		t.Fatal("session survived a malformed UPDATE")
	}
	var me *wire.MessageError
	if !errors.As(s.Err(), &me) || me.Code != wire.ErrCodeUpdate {
		t.Errorf("session error = %v", s.Err())
	}
	// The sender gets the matching NOTIFICATION.
	select {
	case got := <-notif:
		if got.err != nil {
			t.Fatalf("read NOTIFICATION: %v", got.err)
		}
		if n, ok := got.msg.(*wire.Notification); !ok || n.Code != wire.ErrCodeUpdate {
			t.Errorf("got %v, want UPDATE-error NOTIFICATION", got.msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no NOTIFICATION arrived")
	}
}

// TestRouteRefreshIgnored: our OPEN advertises no capabilities, so a
// received ROUTE-REFRESH (RFC 2918 §5) is decoded, counted and ignored.
// The session stays up, the handler sees nothing, and nothing is sent
// back: no re-advertisement.
func TestRouteRefreshIgnored(t *testing.T) {
	ca, cb := net.Pipe()
	h := newCollector()
	met := NewMetrics(telemetry.NewRegistry("t"))
	done := make(chan struct{})
	go func() {
		defer close(done)
		scriptedHandshake(t, cb, 2)
	}()
	s, err := Establish(ca, Config{LocalAS: 1, Handler: h, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer cb.Close()
	<-done

	if err := wire.WriteMessage(cb, &wire.RouteRefresh{AFI: wire.AFIIPv4, SAFI: wire.SAFIUnicast}); err != nil {
		t.Fatal(err)
	}
	// An UPDATE behind the request shows the read loop has passed it.
	if err := wire.WriteMessage(cb, routeUpdate(1)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return h.updateCount() == 1 }, "the UPDATE behind the ROUTE-REFRESH")
	if got := met.msgsIn[wire.MsgRouteRefresh].Value(); got != 1 {
		t.Errorf("ROUTE-REFRESH counted %v times, want 1", got)
	}
	if s.State() != StateEstablished {
		t.Fatalf("state after ROUTE-REFRESH = %v (err %v), want Established", s.State(), s.Err())
	}
	cb.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if msg, err := wire.ReadMessage(cb); err == nil {
		t.Errorf("session answered the ROUTE-REFRESH with %v", msg)
	}
}
