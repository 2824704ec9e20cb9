package session

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/astypes"
	"repro/internal/wire"
)

var errInjected = errors.New("injected write failure")

// failingConn fails every Write once armed and leaves reads alone, so a
// session stays Established while its sends fail.
type failingConn struct {
	net.Conn
	fail atomic.Bool
}

func (c *failingConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, errInjected
	}
	return c.Conn.Write(p)
}

// routeUpdate announces n distinct /24s from AS 1.
func routeUpdate(n int) *wire.Update {
	u := &wire.Update{
		Attrs: wire.PathAttrs{HasOrigin: true, HasNextHop: true, NextHop: 1, ASPath: astypes.NewSeqPath(1)},
	}
	for i := range n {
		u.NLRI = append(u.NLRI, astypes.MustPrefix(0x0a000000|uint32(i)<<8, 24))
	}
	return u
}

// TestSendUpdatesErrorNamesPeer: a batch whose write fails partway
// reports how many UPDATEs went out, and its error names the peer while
// errors.Is still reaches the transport's cause.
func TestSendUpdatesErrorNamesPeer(t *testing.T) {
	ca, cb := net.Pipe()
	conn := &failingConn{Conn: ca}
	done := make(chan struct{})
	go func() {
		defer close(done)
		scriptedHandshake(t, cb, 2)
	}()
	s, err := Establish(conn, Config{LocalAS: 1, Handler: newCollector()})
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	<-done
	t.Cleanup(func() {
		s.Close()
		cb.Close()
	})

	conn.fail.Store(true)
	// Two ~2.4 KiB UPDATEs: the second fills the writer's buffer past one
	// full-size message, so WriteMessage itself writes to the conn.
	u := routeUpdate(600)
	n, err := s.SendUpdates([]*wire.Update{u, u})
	if n != 1 {
		t.Errorf("SendUpdates accepted %d UPDATEs before failing, want 1", n)
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("SendUpdates error = %v, want it to wrap the write failure", err)
	}
	if !strings.Contains(err.Error(), "AS 2") {
		t.Errorf("SendUpdates error %q does not name peer AS 2", err)
	}
}

// TestConcurrentWritersKeepFramesIntact: single UPDATEs, batches and
// keepalives sent from concurrent goroutines share one connection and
// one buffered writer. writeMu keeps every frame whole, so the peer
// decodes each UPDATE and both ends stay up. Run under -race.
func TestConcurrentWritersKeepFramesIntact(t *testing.T) {
	sa, sb, _, hb := establishPair(t, Config{LocalAS: 1}, Config{LocalAS: 2})
	u := routeUpdate(20)
	const rounds = 50
	errs := make(chan error, 3*rounds)
	var wg sync.WaitGroup
	for _, send := range []func() error{
		func() error { return sa.SendUpdate(u) },
		func() error { _, err := sa.SendUpdates([]*wire.Update{u, u}); return err },
		sa.sendKeepalive,
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if err := send(); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitCond(t, func() bool { return hb.updateCount() == 3*rounds }, "every UPDATE at the peer")
	if sa.State() != StateEstablished || sb.State() != StateEstablished {
		t.Errorf("states after concurrent writes: %v / %v", sa.State(), sb.State())
	}
}
