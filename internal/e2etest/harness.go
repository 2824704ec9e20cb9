// Package e2etest exercises the whole detection pipeline end to end on
// loopback TCP: a validating speaker daemon peered with a route
// collector, a legitimate origin, and a forged-origin attacker — then
// verifies the observable outcomes (alarm raised, false route dropped,
// collector view clean) against the /metrics exposition, so the
// telemetry layer is tested as the *interface* through which the
// system's behavior is judged, exactly how an operator would judge it.
package e2etest

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/speaker"
)

// Harness is one booted loopback deployment: a collector and a
// validating daemon peered with it.
type Harness struct {
	// Collector is the passive Route-Views-style archive the validator
	// exports its (validated) table to.
	Collector *collector.Collector
	// Validator is the MOAS-validating daemon under test.
	Validator *daemon.Daemon

	// ValidatorAddr accepts BGP peerings (origin and attacker dial it).
	ValidatorAddr string
	// MetricsAddr is the validator's admin endpoint.
	MetricsAddr string

	speakers []*speaker.Speaker
}

// Boot starts a collector on loopback, then a validating daemon (drop
// mode) peered with it, holding a MOASRR record entitling only
// legitOrigin to prefix. Any roaOrigins additionally load a ROA for
// prefix authorizing exactly those origins, turning on RPKI/ROV
// cross-validation of alarms. Cleanup is registered on t.
func Boot(t *testing.T, prefix string, legitOrigin uint32, roaOrigins ...uint32) *Harness {
	t.Helper()

	c := collector.New(collector.Config{RouterID: 6447})
	t.Cleanup(func() { c.Close() })
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Listen(cln)

	cfg := daemon.Config{
		AS:          100,
		RouterID:    100,
		Validation:  "drop",
		Listen:      []string{"127.0.0.1:0"},
		MetricsAddr: "127.0.0.1:0",
		TraceEvents: 256,
		Pprof:       true,
		Peers: []daemon.PeerConfig{
			{Addr: cln.Addr().String(), AS: uint32(collector.CollectorASN)},
		},
		MOASRR: []daemon.MOASRRConfig{
			{Prefix: prefix, Origins: []uint32{legitOrigin}},
		},
	}
	if len(roaOrigins) > 0 {
		cfg.ROAs = []daemon.ROAConfig{{Prefix: prefix, Origins: roaOrigins}}
	}
	d, err := daemon.Build(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	addrs := d.ListenAddrs()
	if len(addrs) != 1 {
		t.Fatalf("validator listen addrs = %v, want one", addrs)
	}
	return &Harness{
		Collector:     c,
		Validator:     d,
		ValidatorAddr: addrs[0],
		MetricsAddr:   d.MetricsAddr(),
	}
}

// StartSpeaker boots a plain speaker with the given AS, originating
// prefix with the given MOAS list (empty = implicit), and dials it into
// the validator. Cleanup is registered on t.
func (h *Harness) StartSpeaker(t *testing.T, as uint32, prefix astypes.Prefix, list core.List) *speaker.Speaker {
	t.Helper()
	s, err := speaker.New(speaker.Config{AS: astypes.ASN(as), RouterID: uint32(as)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	h.speakers = append(h.speakers, s)
	s.Originate(prefix, list)
	if err := s.Connect(h.ValidatorAddr, 100); err != nil {
		t.Fatal(err)
	}
	return s
}

// Metrics is one scrape of a Prometheus text exposition: series key
// (name plus its rendered label set, exactly as exposed) to value.
type Metrics map[string]float64

// Counter returns the value of the named series (0 when absent, as
// Prometheus semantics treat a never-incremented counter).
func (m Metrics) Counter(series string) float64 { return m[series] }

// ParsePrometheus parses the text exposition format produced by
// telemetry.WritePrometheus: comment lines are skipped, every sample
// line is `key value` with the value after the last space.
func ParsePrometheus(text string) (Metrics, error) {
	out := make(Metrics)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("e2etest: unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("e2etest: sample %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// Scrape fetches and parses the validator's /metrics text exposition.
func (h *Harness) Scrape(t *testing.T) Metrics {
	t.Helper()
	body := h.get(t, "/metrics", "")
	m, err := ParsePrometheus(body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// get fetches path from the admin endpoint, asserting status 200 (or
// wantStatus when nonzero is encoded in callers directly).
func (h *Harness) get(t *testing.T, path, accept string) string {
	t.Helper()
	req, err := http.NewRequest("GET", "http://"+h.MetricsAddr+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return string(body)
}

// WaitFor polls cond until it holds or the deadline passes.
func WaitFor(t *testing.T, cond func() bool, what string) {
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
