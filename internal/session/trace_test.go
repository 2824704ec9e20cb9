package session

import (
	"net"
	"sync"
	"testing"

	"repro/internal/astypes"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// spanCollector is a Handler that also implements StampHandler, so
// UPDATEs arrive through HandleUpdateStamp with their message ordinal.
type spanCollector struct {
	collector
	spans []uint64 // guarded by mu
}

func (c *spanCollector) HandleUpdateStamp(peer astypes.ASN, u *wire.Update, st *obs.Stamp) {
	c.mu.Lock()
	c.spans = append(c.spans, st.Span)
	c.mu.Unlock()
	c.HandleUpdate(peer, u)
}

func (c *spanCollector) spanList() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]uint64(nil), c.spans...)
}

// TestStampHandlerAndTrace: a StampHandler receives strictly increasing
// spans that count every received message (the handshake OPEN and
// KEEPALIVE included) even with no obs recorder configured, and the
// session's recorder captures one KindRecv event per UPDATE with
// matching spans.
func TestStampHandlerAndTrace(t *testing.T) {
	ca, cb := net.Pipe()
	rec := trace.NewRecorder(64)
	sc := &spanCollector{collector: collector{downCh: make(chan struct{}, 1)}}
	plain := newCollector()
	var (
		sa, sb     *Session
		errA, errB error
		wg         sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		sa, errA = Establish(ca, Config{LocalAS: 100, LocalID: 1, Handler: sc, Trace: rec})
	}()
	go func() {
		defer wg.Done()
		sb, errB = Establish(cb, Config{LocalAS: 65001, LocalID: 2, Handler: plain})
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("establish: %v / %v", errA, errB)
	}
	defer sa.Close()
	defer sb.Close()

	prefix := astypes.MustPrefix(0x83b30000, 16)
	for i := 0; i < 3; i++ {
		u := &wire.Update{
			Attrs: wire.PathAttrs{HasOrigin: true, HasNextHop: true, ASPath: astypes.NewSeqPath(65001)},
			NLRI:  []astypes.Prefix{prefix},
		}
		if err := sb.SendUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, func() bool { return sc.updateCount() == 3 }, "span update delivery")

	spans := sc.spanList()
	// The handshake consumed spans 1 (OPEN) and 2 (KEEPALIVE), so the
	// UPDATEs start at 3; keepalives may interleave, so only demand
	// strict monotonic growth from there.
	if len(spans) != 3 || spans[0] < 3 {
		t.Fatalf("spans: %v", spans)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i] <= spans[i-1] {
			t.Fatalf("spans not increasing: %v", spans)
		}
	}

	var recvs []trace.Event
	for _, e := range rec.Events() {
		if e.Kind == trace.KindRecv {
			recvs = append(recvs, e)
		}
	}
	if len(recvs) != 3 {
		t.Fatalf("recv events: %d, want 3 (%+v)", len(recvs), recvs)
	}
	for i, e := range recvs {
		if e.Span != spans[i] {
			t.Errorf("event %d span %d, handler saw %d", i, e.Span, spans[i])
		}
		if e.Node != 100 || e.Peer != 65001 || e.Origin != 65001 || e.Prefix != prefix || e.Aux != 1 {
			t.Errorf("recv event fields: %+v", e)
		}
		if e.Nanos == 0 {
			t.Errorf("live-path event missing wall timestamp: %+v", e)
		}
	}
}

// TestPlainHandlerUnaffectedByTrace: without a StampHandler the classic
// HandleUpdate path still runs, traced or not.
func TestPlainHandlerUnaffectedByTrace(t *testing.T) {
	rec := trace.NewRecorder(16)
	sa, sb, _, hb := establishPair(t,
		Config{LocalAS: 1, LocalID: 11, PeerAS: 2},
		Config{LocalAS: 2, LocalID: 22, PeerAS: 1, Trace: rec},
	)
	_ = sb
	u := &wire.Update{
		Attrs: wire.PathAttrs{HasOrigin: true, HasNextHop: true, ASPath: astypes.NewSeqPath(1)},
		NLRI:  []astypes.Prefix{astypes.MustPrefix(0x0a000000, 8)},
	}
	if err := sa.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	waitCond(t, func() bool { return hb.updateCount() == 1 }, "update delivery")
	waitCond(t, func() bool {
		for _, e := range rec.Events() {
			if e.Kind == trace.KindRecv && e.Peer == 1 {
				return true
			}
		}
		return false
	}, "trace event capture")
}
