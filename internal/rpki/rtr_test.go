package rpki

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/telemetry"
)

func TestPDURoundTrip(t *testing.T) {
	pdus := []pdu{
		{typ: pduSerialNotify, serial: 42},
		{typ: pduSerialQuery, serial: 7},
		{typ: pduResetQuery},
		{typ: pduCacheResponse},
		{typ: pduPrefix, roa: ROA{Prefix: p("131.179.0.0/16"), MaxLen: 24, Origin: 65001}},
		{typ: pduPrefix, roa: ROA{Prefix: p("10.0.0.0/8"), MaxLen: 8, Origin: 1}, withdraw: true},
		{typ: pduEndOfData, serial: 99},
		{typ: pduCacheReset},
		{typ: pduError},
	}
	var buf []byte
	for _, p := range pdus {
		buf = appendPDU(buf, p)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	var scratch [maxPDULen]byte
	for i, want := range pdus {
		got, err := readPDU(br, &scratch)
		if err != nil {
			t.Fatalf("pdu %d: %v", i, err)
		}
		if got != want {
			t.Errorf("pdu %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := readPDU(br, &scratch); err == nil {
		t.Error("read past end succeeded")
	}
}

func TestReadPDUFraming(t *testing.T) {
	good := appendPDU(nil, pdu{typ: pduPrefix, roa: ROA{Prefix: p("10.0.0.0/8"), MaxLen: 8, Origin: 1}})
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"bad version":       corrupt(func(b []byte) { b[0] = 2 }),
		"unknown type":      corrupt(func(b []byte) { b[1] = 99 }),
		"length mismatch":   corrupt(func(b []byte) { b[7] = headerLen }),
		"prefix len 33":     corrupt(func(b []byte) { b[9] = 33 }),
		"maxlen 40":         corrupt(func(b []byte) { b[10] = 40 }),
		"origin past 16bit": corrupt(func(b []byte) { b[16] = 1 }), // origin byte 0 of 4
	}
	var scratch [maxPDULen]byte
	for name, wire := range cases {
		if _, err := readPDU(bufio.NewReader(bytes.NewReader(wire)), &scratch); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// testClient wires a client against srv with a tight reconnect schedule
// and a dialer that records live connections so tests can sever them,
// and can hold reconnects back until released.
type testClient struct {
	store *Store
	reg   *telemetry.Registry

	mu    sync.Mutex
	conns []net.Conn
	gate  chan struct{} // non-nil while dials are held; closed to release

	cancel context.CancelFunc
	done   chan struct{}
}

func startClient(t *testing.T, srv *Server) *testClient {
	t.Helper()
	tc := &testClient{store: NewStore(), reg: telemetry.NewRegistry("test"), done: make(chan struct{})}
	var d net.Dialer
	c, err := NewClient(ClientConfig{
		Addr:          srv.Addr(),
		Store:         tc.store,
		ReconnectBase: time.Millisecond,
		ReconnectMax:  10 * time.Millisecond,
		Seed:          1,
		Registry:      tc.reg,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			tc.mu.Lock()
			gate := tc.gate
			tc.mu.Unlock()
			if gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err == nil {
				tc.mu.Lock()
				tc.conns = append(tc.conns, conn)
				tc.mu.Unlock()
			}
			return conn, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tc.cancel = cancel
	go func() {
		defer close(tc.done)
		c.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-tc.done
	})
	return tc
}

// sever closes every connection the client has dialed so far, forcing
// a reconnect.
func (tc *testClient) sever() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, c := range tc.conns {
		c.Close()
	}
	tc.conns = tc.conns[:0]
}

// severAndHold is sever with the reconnect held back until release.
func (tc *testClient) severAndHold() (release func()) {
	gate := make(chan struct{})
	tc.mu.Lock()
	tc.gate = gate
	tc.mu.Unlock()
	tc.sever()
	return func() {
		tc.mu.Lock()
		tc.gate = nil
		tc.mu.Unlock()
		close(gate)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func newTestServer(t *testing.T, initial ...ROA) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, initial)
	t.Cleanup(srv.Close)
	return srv
}

func TestClientFullSync(t *testing.T) {
	r1 := ROA{Prefix: p("131.179.0.0/16"), MaxLen: 24, Origin: 65001}
	r2 := ROA{Prefix: p("10.0.0.0/8"), MaxLen: 8, Origin: 65002}
	srv := newTestServer(t, r1, r2)
	tc := startClient(t, srv)

	waitFor(t, "full sync", func() bool { return tc.store.Len() == 2 })
	if got := tc.store.Validate(p("131.179.7.0/24"), 65001); got != Valid {
		t.Errorf("after sync Validate = %v, want Valid", got)
	}
	text := scrapeMetrics(t, tc.reg)
	for _, want := range []string{"test_rpki_rtr_connects_total 1", "test_rpki_rtr_resets_total 1", "test_rpki_roas 2", "test_rpki_rtr_serial 0"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestClientIncrementalDeltas(t *testing.T) {
	r1 := ROA{Prefix: p("10.0.0.0/8"), MaxLen: 8, Origin: 1}
	srv := newTestServer(t, r1)
	tc := startClient(t, srv)
	waitFor(t, "initial sync", func() bool { return tc.store.Len() == 1 })

	// An announce pushed over SerialNotify reaches the store without a
	// reconnect.
	r2 := ROA{Prefix: p("131.179.0.0/16"), MaxLen: 24, Origin: 65001}
	srv.Announce(r2)
	waitFor(t, "delta announce", func() bool { return tc.store.Validate(p("131.179.0.0/16"), 65001) == Valid })

	srv.Withdraw(r1)
	waitFor(t, "delta withdraw", func() bool { return tc.store.Validate(p("10.0.0.0/8"), 1) == NotFound })

	if tc.store.Len() != 1 {
		t.Errorf("store Len = %d, want 1", tc.store.Len())
	}
	// One connect, one full reset; everything after flowed as deltas.
	text := scrapeMetrics(t, tc.reg)
	for _, want := range []string{"test_rpki_rtr_connects_total 1", "test_rpki_rtr_resets_total 1", "test_rpki_rtr_serial 2"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestClientReconnectCatchup(t *testing.T) {
	r1 := ROA{Prefix: p("10.0.0.0/8"), MaxLen: 8, Origin: 1}
	srv := newTestServer(t, r1)
	tc := startClient(t, srv)
	waitFor(t, "initial sync", func() bool { return tc.store.Len() == 1 })

	// Publish while the client is down; the reconnect's serial query
	// replays the missed window.
	tc.sever()
	r2 := ROA{Prefix: p("131.179.0.0/16"), MaxLen: 16, Origin: 65001}
	srv.Announce(r2)
	waitFor(t, "catch-up after reconnect", func() bool {
		return tc.store.Validate(p("131.179.0.0/16"), 65001) == Valid
	})
}

func TestClientCacheResetResync(t *testing.T) {
	r1 := ROA{Prefix: p("10.0.0.0/8"), MaxLen: 8, Origin: 1}
	srv := newTestServer(t, r1)
	tc := startClient(t, srv)
	waitFor(t, "initial sync", func() bool { return tc.store.Len() == 1 })

	// Blow past the delta window while the client is down: each publish
	// is its own serial, so maxLog+2 of them leave the log starting past
	// the client's serial and the serial query must come back CacheReset.
	// The client stays down until the last one is out, or it would catch
	// up by delta part-way through.
	release := tc.severAndHold()
	var batch []ROA
	for i := 0; i < maxLog+2; i++ {
		batch = append(batch, ROA{
			Prefix: astypes.Prefix{Addr: uint32(0xc0000000 | i<<8), Len: 24},
			MaxLen: 24,
			Origin: astypes.ASN(1 + i%1000),
		})
	}
	for _, r := range batch {
		srv.Announce(r)
	}
	release()
	resets := tc.reg.Counter("rpki_rtr_resets_total", "")
	waitFor(t, "full resync after cache reset", func() bool { return resets.Value() >= 2 })
	if n := resets.Value(); n != 2 {
		t.Errorf("full resets = %d, want 2", n)
	}
	if got, want := tc.store.Len(), srv.Len(); got != want {
		t.Errorf("store holds %d ROAs after the resync, server %d", got, want)
	}
	if got := tc.store.Validate(p("10.0.0.0/8"), 1); got != Valid {
		t.Errorf("pre-gap ROA lost in resync: %v", got)
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := NewClient(ClientConfig{Store: NewStore()}); err == nil {
		t.Error("missing Addr accepted")
	}
	if _, err := NewClient(ClientConfig{Addr: "x:1"}); err == nil {
		t.Error("missing Store accepted")
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	srv := newTestServer(t)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := conn.Read(buf); err != nil {
			return // server hung up, as it must
		}
	}
}

func scrapeMetrics(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := telemetry.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// BenchmarkROVLookup measures the validate hot path; the emitted
// allocs/op must stay 0 (asserted by TestValidateAllocFree).
func BenchmarkROVLookup(b *testing.B) {
	s := NewStore()
	for i := 0; i < 10000; i++ {
		s.Add(ROA{
			Prefix: astypes.Prefix{Addr: uint32(i) << 12, Len: 20},
			MaxLen: 24,
			Origin: astypes.ASN(1 + i%5000),
		})
	}
	queries := make([]astypes.Prefix, 256)
	for i := range queries {
		queries[i] = astypes.Prefix{Addr: uint32(i*37) << 12, Len: 24}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		s.Validate(q, astypes.ASN(1+i%5000))
	}
}

// BenchmarkROVFeedApply measures delta-apply throughput: the cost of
// keeping the store current under RTR announce/withdraw churn.
func BenchmarkROVFeedApply(b *testing.B) {
	roas := make([]ROA, 4096)
	for i := range roas {
		roas[i] = ROA{
			Prefix: astypes.Prefix{Addr: uint32(i) << 12, Len: 20},
			MaxLen: 24,
			Origin: astypes.ASN(1 + i%5000),
		}
	}
	s := NewStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := roas[i%len(roas)]
		if i%(2*len(roas)) < len(roas) {
			s.Add(r)
		} else {
			s.Remove(r)
		}
	}
}

// TestOpenMixesSources: a file, inline records and an RTR cache all
// feed the one store Open returns, and the returned client's Synced
// gates on the cache.
func TestOpenMixesSources(t *testing.T) {
	if store, client, err := Open("", nil, ClientConfig{}); store != nil || client != nil || err != nil {
		t.Fatalf("Open with no source = %v, %v, %v; want all nil", store, client, err)
	}

	file := filepath.Join(t.TempDir(), "roas.txt")
	if err := os.WriteFile(file, []byte("131.179.0.0/16=65001\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	inline := []ROA{{Prefix: p("10.0.0.0/8"), MaxLen: 8, Origin: 65002}}
	store, client, err := Open(file, inline, ClientConfig{})
	if err != nil || client != nil || store.Len() != 2 {
		t.Fatalf("file+inline: store %v client %v err %v", store, client, err)
	}
	if _, _, err := Open(filepath.Join(t.TempDir(), "absent"), nil, ClientConfig{}); err == nil {
		t.Error("missing ROA file accepted")
	}

	srv := newTestServer(t, ROA{Prefix: p("192.0.2.0/24"), MaxLen: 24, Origin: 65003})
	store, client, err = Open(file, inline, ClientConfig{Addr: srv.Addr()})
	if err != nil || client == nil {
		t.Fatalf("with rtr: client %v err %v", client, err)
	}
	if client.Synced() {
		t.Fatal("client synced before Run")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		client.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	waitFor(t, "rtr sync", client.Synced)
	if got := store.Validate(p("192.0.2.0/24"), 65003); got != Valid {
		t.Errorf("cache ROA not in the opened store: Validate = %v", got)
	}
}
