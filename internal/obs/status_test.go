package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

func statusFixture() (*statusHandler, *Recorder) {
	reg := telemetry.NewRegistry("t")
	reg.Counter("updates_total", "updates").Add(12)
	reg.Gauge("rislive_lag_ms", "stream lag").Set(340)
	reg.CounterVec("moas_alarm_class_total", "alarms by class", "class").
		With("forged").Add(3)
	reg.CounterVec("monitor_alarm_class_total", "monitor alarms", "class").
		With("forged").Add(2)
	reg.Histogram("apply_seconds", "apply latency").Observe(4 * time.Millisecond)

	rec := NewRecorder()
	rec.Record(StageDecode, 11, 300*time.Nanosecond)
	rec.Record(StageAlarm, 11, 2*time.Millisecond)

	var replay Progress
	replay.SetTotalBytes(100)
	replay.AddBytes(100)
	replay.AddRecords(9)
	replay.MarkDone()

	h := newStatusHandler(SurfaceConfig{
		Registry: reg,
		Stages:   rec,
		Replay:   &replay,
		Ready:    &telemetry.Readiness{},
	})
	return h, rec
}

func TestStatusDoc(t *testing.T) {
	h, _ := statusFixture()
	doc := h.Doc()

	if doc.Ready == nil || !*doc.Ready {
		t.Fatalf("ready = %+v, want true", doc.Ready)
	}
	if len(doc.Stages) != int(NumStages) {
		t.Fatalf("stages = %d, want %d", len(doc.Stages), NumStages)
	}
	if doc.Stages[StageDecode].Count != 1 || doc.Stages[StageAlarm].Count != 1 {
		t.Fatalf("stage counts wrong: %+v", doc.Stages)
	}
	if doc.LagMs == nil || *doc.LagMs != 340 {
		t.Fatalf("lagMs = %v, want 340", doc.LagMs)
	}
	// Alarm classes merge across the speaker and monitor families.
	if got := doc.AlarmClasses["forged"]; got != 5 {
		t.Fatalf("alarmClasses[forged] = %g, want 5", got)
	}
	if doc.Replay == nil || !doc.Replay.Done || doc.Replay.Records != 9 {
		t.Fatalf("replay = %+v", doc.Replay)
	}
	if doc.Runtime == nil || doc.Runtime.Goroutines <= 0 {
		t.Fatalf("runtime = %+v", doc.Runtime)
	}
	if got := doc.Counters["t_updates_total"]; got != 12 {
		t.Fatalf("counters = %+v", doc.Counters)
	}
	if got := doc.Counters[`t_moas_alarm_class_total{class="forged"}`]; got != 3 {
		t.Fatalf("labeled counter key missing: %+v", doc.Counters)
	}
	hs, ok := doc.Histograms["t_apply_seconds"]
	if !ok || hs.Count != 1 {
		t.Fatalf("histograms = %+v", doc.Histograms)
	}
	if hs.P50 <= 0 || hs.P99 < hs.P50 {
		t.Fatalf("quantiles = %+v", hs)
	}
}

func TestStatusReadyError(t *testing.T) {
	ready := &telemetry.Readiness{}
	ready.Register("rtr", func() bool { return false }, "cache not synced")
	h := newStatusHandler(SurfaceConfig{Ready: ready})
	doc := h.Doc()
	if doc.Ready == nil || *doc.Ready || doc.ReadyError != "not ready: rtr: cache not synced" {
		t.Fatalf("doc = %+v, want not-ready with error", doc)
	}
}

// TestStatusServeJSON: /debug/status has one encoding. The bare
// request, ?format=json and an Accept header all get the same indented
// JSON document; other methods are refused.
func TestStatusServeJSON(t *testing.T) {
	h, _ := statusFixture()
	for _, tc := range []struct{ target, accept string }{
		{"/debug/status", ""},
		{"/debug/status?format=json", ""},
		{"/debug/status", "application/json"},
		{"/debug/status", "text/plain"},
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", tc.target, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		h.ServeHTTP(rec, req)
		if rec.Code != 200 || !strings.Contains(rec.Header().Get("Content-Type"), "json") {
			t.Fatalf("%s (Accept %q): %d %s", tc.target, tc.accept, rec.Code, rec.Header().Get("Content-Type"))
		}
		var doc StatusDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s (Accept %q): decode: %v", tc.target, tc.accept, err)
		}
		if doc.SchemaVersion != StatusSchemaVersion || len(doc.Stages) != int(NumStages) {
			t.Fatalf("%s (Accept %q): schema %d, %d stages", tc.target, tc.accept, doc.SchemaVersion, len(doc.Stages))
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("PUT", "/debug/status", nil))
	if rec.Code != 405 {
		t.Fatalf("PUT status = %d, want 405", rec.Code)
	}
}

// TestStatusGolden pins the document's layout: field names, order,
// series keys and stage buckets of a fixed registry, stage recorder,
// readiness and replay. Uptime and the runtime sample are the only
// clock- or machine-dependent parts and are zeroed first. Run with
// -update to regenerate testdata/status.json.golden.
func TestStatusGolden(t *testing.T) {
	h, _ := statusFixture()
	doc := h.Doc()
	doc.UptimeSeconds = 0
	doc.Runtime = nil
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "status.json.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("status document mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestStatusEmptyConfig(t *testing.T) {
	h := newStatusHandler(SurfaceConfig{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/status?format=json", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var doc StatusDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if doc.Ready != nil || doc.Stages != nil || doc.LagMs != nil {
		t.Fatalf("empty config produced %+v", doc)
	}
}
