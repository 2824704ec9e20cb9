package speaker

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// TestListenCloseRace hammers the Listen/Close window: the accept
// goroutine's wg.Add must not race Close's wg.Wait. Run under -race.
func TestListenCloseRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		s, err := New(Config{AS: 1, RouterID: 1})
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			s.Listen(ln)
		}()
		go func() {
			defer wg.Done()
			s.Close()
		}()
		wg.Wait()
		s.Close()
		ln.Close()
	}
}

// TestCloseWaitsForOnPeerDown pins the OnPeerDown contract: the callback
// runs on a tracked goroutine, and Close does not return before it does.
func TestCloseWaitsForOnPeerDown(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	a, err := New(Config{AS: 1, RouterID: 1, OnPeerDown: func(astypes.ASN) {
		close(started)
		<-release
		finished.Store(true)
	}})
	if err != nil {
		t.Fatalf("new a: %v", err)
	}
	b, err := New(Config{AS: 2, RouterID: 2})
	if err != nil {
		t.Fatalf("new b: %v", err)
	}
	defer b.Close()
	connectPair(t, a, b)

	b.Close() // takes the session down on a's side
	<-started

	closed := make(chan struct{})
	go func() {
		a.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while OnPeerDown was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after OnPeerDown finished")
	}
	if !finished.Load() {
		t.Fatal("Close returned before OnPeerDown finished")
	}
}

// TestAdvertisedToWhilePropagating reads a peer's Adj-RIB-Out while
// routes propagate to it: AdvertisedTo must take mu, which every write
// to peers and to a peer's advertised map holds. Run under -race.
func TestAdvertisedToWhilePropagating(t *testing.T) {
	s, err := New(Config{AS: 100, RouterID: 100})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var heard atomic.Int64
	dialRaw(t, s, 20, func(u *wire.Update) { heard.Add(int64(len(u.NLRI))) })
	a := dialRaw(t, s, 10, nil)

	stop, stopped := make(chan struct{}), make(chan struct{})
	var polls atomic.Int64
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.AdvertisedTo(20)
			polls.Add(1)
		}
	}()
	t.Cleanup(func() {
		close(stop)
		<-stopped
	})
	prefixes := slash24s(10, 2000)
	announceAll(t, a, astypes.NewSeqPath(10), prefixes)
	waitFor(t, func() bool { return heard.Load() == int64(len(prefixes)) }, "%d routes at AS 20", len(prefixes))
	if polls.Load() == 0 {
		t.Fatal("AdvertisedTo never ran during propagation")
	}
	if got := len(s.AdvertisedTo(20)); got != len(prefixes) {
		t.Errorf("AdvertisedTo(20) lists %d prefixes, want %d", got, len(prefixes))
	}
}
