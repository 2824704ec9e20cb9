package daemon

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/speaker"
)

func TestLoadValidation(t *testing.T) {
	tests := []struct {
		name    string
		give    string
		wantErr bool
	}{
		{name: "minimal", give: `{"as": 4}`},
		{name: "full", give: `{
			"as": 4, "routerID": 4, "validation": "drop",
			"originate": [{"prefix": "10.0.0.0/8", "moasList": [4, 226]}],
			"aggregates": [{"prefix": "10.0.0.0/8", "summaryOnly": true}],
			"moasrr": [{"prefix": "10.0.0.0/8", "origins": [4]}]
		}`},
		{name: "missing AS", give: `{"validation": "off"}`, wantErr: true},
		{name: "bad validation", give: `{"as": 4, "validation": "maybe"}`, wantErr: true},
		{name: "bad prefix", give: `{"as": 4, "originate": [{"prefix": "banana"}]}`, wantErr: true},
		{name: "bad aggregate", give: `{"as": 4, "aggregates": [{"prefix": "x"}]}`, wantErr: true},
		{name: "empty moasrr origins", give: `{"as": 4, "moasrr": [{"prefix": "10.0.0.0/8", "origins": []}]}`, wantErr: true},
		{name: "unknown field", give: `{"as": 4, "bogus": 1}`, wantErr: true},
		{name: "not json", give: `as = 4`, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tt.give))
			if (err != nil) != tt.wantErr {
				t.Errorf("Load error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// freePort grabs an ephemeral port and releases it for the daemon to
// re-bind (small race, acceptable in tests).
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestTwoDaemonsDetectHijack(t *testing.T) {
	victimAddr := freePort(t)

	// Daemon 1: the true origin, listening.
	origin, err := Build(Config{
		AS:       4,
		RouterID: 4,
		Listen:   []string{victimAddr},
		Originate: []OriginateConfig{
			{Prefix: "131.179.0.0/16"},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()

	// Daemon 2: a validating transit peered with the origin, with the
	// MOASRR record for the victim prefix and an admin endpoint.
	transit, err := Build(Config{
		AS:          701,
		RouterID:    701,
		Validation:  "drop",
		MetricsAddr: "127.0.0.1:0",
		Peers:       []PeerConfig{{Addr: victimAddr, AS: 4}},
		MOASRR: []MOASRRConfig{
			{Prefix: "131.179.0.0/16", Origins: []uint32{4}},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer transit.Close()

	prefix := astypes.MustPrefix(0x83b30000, 16)
	waitFor(t, func() bool { return transit.Speaker.Table().Best(prefix) != nil }, "route at transit")

	// A third, attacking daemon peers with the transit and hijacks.
	transitAddr := freePort(t)
	ln, err := net.Listen("tcp", transitAddr)
	if err != nil {
		t.Fatal(err)
	}
	transit.Speaker.Listen(ln)
	attacker, err := Build(Config{
		AS:       52,
		RouterID: 52,
		Peers:    []PeerConfig{{Addr: transitAddr, AS: 701}},
		Originate: []OriginateConfig{
			{Prefix: "131.179.0.0/16"},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()

	waitFor(t, func() bool { return len(transit.Speaker.Alarms()) > 0 }, "alarm at transit")
	best := transit.Speaker.Table().Best(prefix)
	if best == nil || best.OriginAS() != 4 {
		t.Errorf("transit best = %+v, want origin 4", best)
	}

	// The MIB endpoint reports the alarm.
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/mib", transit.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mib speaker.MIB
	if err := json.NewDecoder(resp.Body).Decode(&mib); err != nil {
		t.Fatal(err)
	}
	if mib.AS != 701 || mib.Counters.Alarms == 0 {
		t.Errorf("MIB over HTTP = %+v", mib)
	}
}

func TestBuildRejectsBadPeerAddr(t *testing.T) {
	_, err := Build(Config{
		AS:    4,
		Peers: []PeerConfig{{Addr: "127.0.0.1:1", AS: 5}},
	}, nil)
	if err == nil {
		t.Fatal("dial to a dead port should fail Build")
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
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

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/does/not/exist.json"); err == nil {
		t.Error("missing config accepted")
	}
}

func TestBuildWithMIBAndAggregates(t *testing.T) {
	d, err := Build(Config{
		AS:          4,
		RouterID:    4,
		MetricsAddr: "127.0.0.1:0",
		Originate: []OriginateConfig{
			{Prefix: "10.1.0.0/16"},
			{Prefix: "10.2.0.0/16"},
		},
		Aggregates: []AggregateConfig{
			{Prefix: "10.0.0.0/8", SummaryOnly: true},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.MetricsAddr() == "" {
		t.Fatal("admin address missing")
	}
	aggs := d.Speaker.Aggregates()
	if len(aggs) != 1 || !aggs[0].Active || !aggs[0].SummaryOnly {
		t.Errorf("aggregates = %+v", aggs)
	}
	prefix := astypes.MustPrefix(0x0a000000, 8)
	if d.Speaker.Table().Best(prefix) == nil {
		t.Error("aggregate not originated")
	}
	// Double Close is safe.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsBadListenAddr(t *testing.T) {
	if _, err := Build(Config{AS: 4, Listen: []string{"300.1.1.1:bad"}}, nil); err == nil {
		t.Error("bad listen address accepted")
	}
}
