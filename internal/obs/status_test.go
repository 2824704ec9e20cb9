package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

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

	smp := NewSampler()
	smp.record(takeSample())

	h := newStatusHandler(SurfaceConfig{
		Registry: reg,
		Stages:   rec,
		Replay:   &replay,
		Ready:    &telemetry.Readiness{},
	}, smp)
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
	h := newStatusHandler(SurfaceConfig{Ready: ready}, NewSampler())
	doc := h.Doc()
	if doc.Ready == nil || *doc.Ready || doc.ReadyError != "not ready: rtr: cache not synced" {
		t.Fatalf("doc = %+v, want not-ready with error", doc)
	}
}

func TestStatusServeJSONAndText(t *testing.T) {
	h, _ := statusFixture()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/status?format=json", nil))
	if rec.Code != 200 || !strings.Contains(rec.Header().Get("Content-Type"), "json") {
		t.Fatalf("json response: %d %s", rec.Code, rec.Header().Get("Content-Type"))
	}
	var doc StatusDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(doc.Stages) != int(NumStages) {
		t.Fatalf("json stages = %d", len(doc.Stages))
	}

	// Accept header selects JSON too.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/debug/status", nil)
	req.Header.Set("Accept", "application/json")
	h.ServeHTTP(rec, req)
	if !strings.Contains(rec.Header().Get("Content-Type"), "json") {
		t.Fatalf("Accept: application/json got %s", rec.Header().Get("Content-Type"))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/status", nil))
	body := rec.Body.String()
	for _, want := range []string{"uptime:", "stage latency", "decode", "alarm", "stream lag: 340ms", "alarm classes:", "forged", "replay: 9 records"} {
		if !strings.Contains(body, want) {
			t.Errorf("text view missing %q in:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("PUT", "/debug/status", nil))
	if rec.Code != 405 {
		t.Fatalf("PUT status = %d, want 405", rec.Code)
	}
}

func TestStatusEmptyConfig(t *testing.T) {
	h := newStatusHandler(SurfaceConfig{}, NewSampler())
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
