package daemon

import (
	"testing"
	"time"

	"repro/internal/astypes"
)

func TestConfigValidatesNewFields(t *testing.T) {
	bad := []Config{
		{AS: 1, ImportDeny: []string{"banana"}},
		{AS: 1, ListEncoding: "morse"},
	}
	for _, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	good := Config{
		AS:               1,
		ImportDeny:       []string{"10.0.0.0/8"},
		ListEncoding:     "attribute",
		ReconnectSeconds: 3,
	}
	if err := good.validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestConfigValidatesReconnectBounds(t *testing.T) {
	if cfg := (Config{AS: 1, ReconnectSeconds: -1}); cfg.validate() == nil {
		t.Errorf("config %+v accepted", cfg)
	}
	good := Config{AS: 1, ReconnectSeconds: 2}
	if err := good.validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestReconnectDelaySchedule checks the re-dial schedule a daemon
// derives from its Config: ReconnectSeconds is the backoff base, the
// cap is 16× the base, and every wait drawn from the daemon's shared
// jitter source lands in [d/2, d] for the doubled-and-capped d.
func TestReconnectDelaySchedule(t *testing.T) {
	d, err := Build(Config{AS: 1, ReconnectSeconds: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const (
		base = time.Second
		max  = 16 * time.Second
	)
	if d.reconnect != base || d.reconnectMax != max {
		t.Fatalf("schedule base %v cap %v, want %v and %v", d.reconnect, d.reconnectMax, base, max)
	}
	for attempt := 0; attempt < 10; attempt++ {
		want := base << attempt
		if want > max || want <= 0 {
			want = max
		}
		for i := 0; i < 50; i++ {
			got := d.jitter.Delay(d.reconnect, d.reconnectMax, attempt)
			if got < want/2 || got > want {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, want/2, want)
			}
		}
	}
	// The jitter must actually vary (not return a constant).
	seen := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		seen[d.jitter.Delay(d.reconnect, d.reconnectMax, 0)] = true
	}
	if len(seen) < 2 {
		t.Error("re-dial schedule produced no jitter")
	}
	// Without ReconnectSeconds the daemon never waits to re-dial.
	off, err := Build(Config{AS: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if got := off.jitter.Delay(off.reconnect, off.reconnectMax, 3); got != 0 {
		t.Errorf("reconnect disabled but delay is %v", got)
	}
}

func TestDaemonReconnect(t *testing.T) {
	addr := freePort(t)
	origin, err := Build(Config{
		AS:        4,
		RouterID:  4,
		Listen:    []string{addr},
		Originate: []OriginateConfig{{Prefix: "131.179.0.0/16"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	client, err := Build(Config{
		AS:               701,
		RouterID:         701,
		Peers:            []PeerConfig{{Addr: addr, AS: 4}},
		ReconnectSeconds: 1,
	}, nil)
	if err != nil {
		origin.Close()
		t.Fatal(err)
	}
	defer client.Close()

	prefix := astypes.MustPrefix(0x83b30000, 16)
	waitFor(t, func() bool { return client.Speaker.Table().Best(prefix) != nil }, "initial route")

	// The origin goes away; the client loses the session and its routes.
	if err := origin.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return client.Speaker.Table().Best(prefix) == nil }, "route flushed")

	// The origin comes back on the same address; the client re-dials.
	origin2, err := Build(Config{
		AS:        4,
		RouterID:  4,
		Listen:    []string{addr},
		Originate: []OriginateConfig{{Prefix: "131.179.0.0/16"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer origin2.Close()
	waitFor(t, func() bool { return client.Speaker.Table().Best(prefix) != nil }, "route after reconnect")
}

func TestDaemonAttributeEncodingEndToEnd(t *testing.T) {
	addr := freePort(t)
	origin, err := Build(Config{
		AS:           4,
		RouterID:     4,
		Listen:       []string{addr},
		ListEncoding: "attribute",
		Originate: []OriginateConfig{
			{Prefix: "131.179.0.0/16", MOASList: []uint32{4, 226}},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()

	client, err := Build(Config{
		AS:       701,
		RouterID: 701,
		Peers:    []PeerConfig{{Addr: addr, AS: 4}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	prefix := astypes.MustPrefix(0x83b30000, 16)
	waitFor(t, func() bool { return client.Speaker.Table().Best(prefix) != nil }, "route")
	best := client.Speaker.Table().Best(prefix)
	if len(best.Unknown) != 1 {
		t.Errorf("attribute-encoded list missing: %+v", best.Unknown)
	}
	if len(best.Communities) != 0 {
		t.Errorf("unexpected communities: %v", best.Communities)
	}
}
