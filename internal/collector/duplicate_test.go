package collector

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/wire"
)

// dialPair returns both ends of a loopback TCP connection.
func dialPair(t *testing.T) (near, far net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := ln.Accept()
		accepted <- conn
	}()
	near, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	far = <-accepted
	if far == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { near.Close(); far.Close() })
	return near, far
}

// addPeerConnWithin runs AddPeerConn on conn and fails the test unless
// it returns within d.
func addPeerConnWithin(t *testing.T, c *Collector, conn net.Conn, d time.Duration) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := c.AddPeerConn(conn)
		errc <- err
	}()
	select {
	case err := <-errc:
		return err
	case <-time.After(d):
		t.Fatalf("AddPeerConn did not return within %v", d)
		return nil
	}
}

// TestCollectorDuplicatePeerAS: a second session from an AS that is
// already peered is rejected promptly, and its teardown leaves the
// established peering and its routes alone.
func TestCollectorDuplicatePeerAS(t *testing.T) {
	c := newCollector(t)
	s1 := newPeerSpeaker(t, 4)
	peerWithCollector(t, c, s1)
	s1.Originate(prefix, core.NewList(4))
	waitFor(t, func() bool { return len(c.RoutesFrom(4)) == 1 }, "announcement archived")

	// A second speaker claiming the same AS dials in.
	twin := newPeerSpeaker(t, 4)
	near, far := dialPair(t)
	twinDone := make(chan struct{})
	go func() {
		defer close(twinDone)
		twin.AddPeerConn(far, CollectorASN)
	}()
	if err := addPeerConnWithin(t, c, near, time.Second); err == nil {
		t.Fatal("duplicate session from AS 4 accepted")
	}
	<-twinDone

	if got := c.Peers(); len(got) != 1 || got[0] != 4 {
		t.Errorf("peers after rejecting the duplicate = %v, want [4]", got)
	}
	if got := len(c.RoutesFrom(4)); got != 1 {
		t.Errorf("routes from AS 4 after rejecting the duplicate = %d, want 1", got)
	}
}

// TestCollectorCloseDuringHandshake: Close runs while a peer is still
// sending its OPEN. The handshake then completes against a closed
// collector, and AddPeerConn must reject it and return rather than
// wait on its own lock.
func TestCollectorCloseDuringHandshake(t *testing.T) {
	c := New(Config{RouterID: 999})
	near, far := dialPair(t)
	errc := make(chan error, 1)
	go func() {
		_, err := c.AddPeerConn(near)
		errc <- err
	}()

	// The scripted peer reads the collector's OPEN, lets Close run,
	// and only then completes the handshake.
	if _, err := wire.ReadMessage(far); err != nil {
		t.Fatalf("read collector OPEN: %v", err)
	}
	c.Close()
	peerAS := astypes.ASN(65001)
	if err := wire.WriteMessage(far, &wire.Open{
		Version: wire.Version4, AS: peerAS, HoldTime: 90, BGPID: uint32(peerAS),
	}); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(far, &wire.Keepalive{}); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, far)

	select {
	case err := <-errc:
		if err == nil {
			t.Error("closed collector accepted a peer")
		}
	case <-time.After(time.Second):
		t.Fatal("AddPeerConn did not return after Close")
	}
	if got := c.Peers(); len(got) != 0 {
		t.Errorf("closed collector lists peers %v", got)
	}
}
