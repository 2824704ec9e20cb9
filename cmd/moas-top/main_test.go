package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/e2etest"
	"repro/internal/obs"
)

// TestTopRendersLiveSession boots the loopback deployment, drives one
// announcement through it, and points moas-top's core loop at the
// validator's /debug/status — the viewer must render a frame with the
// stage-latency table and rate lines from a live admin endpoint.
func TestTopRendersLiveSession(t *testing.T) {
	prefix, err := astypes.ParsePrefix("203.0.113.0/24")
	if err != nil {
		t.Fatal(err)
	}
	h := e2etest.Boot(t, "203.0.113.0/24", 65001)
	h.StartSpeaker(t, 65001, prefix, core.List{})
	e2etest.WaitFor(t, func() bool {
		return h.Validator.Obs().StageCount(0) > 0
	}, "a decoded update to land in the observatory")

	var buf strings.Builder
	err = run(topConfig{addr: h.MetricsAddr, frames: 2, interval: 1, clear: false}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"moas-top", "ready",
		"stage", "decode", "session", "validate", "rib", "alarm",
		"rates (/s):",
		"goroutines=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
}

// TestTopFirstFetchError: an unreachable endpoint must fail fast, not
// render garbage.
func TestTopFirstFetchError(t *testing.T) {
	var buf strings.Builder
	if err := run(topConfig{addr: "127.0.0.1:1", frames: 1}, &buf); err == nil {
		t.Fatal("run against a dead endpoint succeeded")
	}
}

// TestTopRatesAfterRestart: when the target restarts between frames
// its counters start again from zero. The frame after the restart
// shows totals, as a first frame does, never a negative rate.
func TestTopRatesAfterRestart(t *testing.T) {
	at := time.Unix(1000, 0)
	before := &frame{at: at, doc: &obs.StatusDoc{
		UptimeSeconds: 600,
		Counters:      map[string]float64{"moas_updates_total": 5000, "moas_alarms_total": 40},
	}}
	after := &frame{at: at.Add(2 * time.Second), doc: &obs.StatusDoc{
		UptimeSeconds: 1,
		Counters:      map[string]float64{"moas_updates_total": 30, "moas_alarms_total": 2},
	}}
	got := counterRates(after, before)
	want := []rate{{"moas_updates_total", 30}, {"moas_alarms_total", 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rates after restart = %v, want totals %v", got, want)
	}

	// Without a restart the same two frames give per-second deltas.
	after.doc.UptimeSeconds = 602
	after.doc.Counters = map[string]float64{"moas_updates_total": 5030, "moas_alarms_total": 42}
	got = counterRates(after, before)
	want = []rate{{"moas_updates_total", 15}, {"moas_alarms_total", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rates = %v, want deltas %v", got, want)
	}
}

// TestTopRenderStagesAndReplay: the frame carries every stage quantile
// the document has (p50, p90, p99, max) and the replay byte count.
func TestTopRenderStagesAndReplay(t *testing.T) {
	doc := &obs.StatusDoc{
		UptimeSeconds: 3,
		Stages: []obs.StageSnapshot{{
			Stage: "decode", Count: 4,
			P50Ns: 300, P90Ns: 1500, P99Ns: 2_500_000, MaxNs: 3_000_000_000,
		}},
		Replay: &obs.ProgressSnapshot{Records: 9, Bytes: 4096, TotalBytes: 8192, Percent: 50},
	}
	var buf strings.Builder
	render(&buf, "127.0.0.1:9999", &frame{doc: doc, at: time.Now()}, nil)
	out := buf.String()
	for _, want := range []string{
		"stage        count        p50        p90        p99        max\n",
		"decode           4      300ns      1.5µs     2.50ms      3.00s\n",
		"replay: 9 records, 4096 bytes (50.0%) done=false\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
}
