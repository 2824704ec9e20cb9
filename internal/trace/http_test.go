package trace

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func serveRoute(t *testing.T, routes map[string]http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	mux := http.NewServeMux()
	for pattern, h := range routes {
		mux.Handle(pattern, h)
	}
	req := httptest.NewRequest(http.MethodGet, url, nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	return w
}

func TestTraceEndpoint(t *testing.T) {
	r := NewRecorder(16, WithoutWallClock())
	for i := 0; i < 4; i++ {
		r.Record(testEvent(i))
	}
	routes := Routes(r)

	// Every query gets the same JSON array, one event per line: a
	// format parameter selects nothing, and n above the ring's length
	// keeps every event.
	for _, url := range []string{"/debug/trace", "/debug/trace?n=9&format=text"} {
		w := serveRoute(t, routes, url)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", url, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", url, ct)
		}
		if body := w.Body.String(); strings.Count(body, "\n") != 4 || !strings.Contains(body, "131.179.0.0/16") {
			t.Errorf("%s: body %q", url, body)
		}
		var events []Event
		if err := json.Unmarshal(w.Body.Bytes(), &events); err != nil {
			t.Fatalf("%s: json body: %v\n%s", url, err, w.Body.String())
		}
		if len(events) != 4 || events[3].Span != 3 {
			t.Errorf("%s: json events: %+v", url, events)
		}
	}

	w := serveRoute(t, routes, "/debug/trace?n=2")
	var events []Event
	if err := json.Unmarshal(w.Body.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Span != 2 {
		t.Errorf("limited events: %+v", events)
	}

	if w = serveRoute(t, routes, "/debug/trace?n=bogus"); w.Code != http.StatusBadRequest {
		t.Errorf("bad n: status %d", w.Code)
	}
}

func TestAlarmEndpoints(t *testing.T) {
	r := NewRecorder(64, WithoutWallClock())
	routes := Routes(r)

	// Empty alarm list is a JSON array, not null.
	w := serveRoute(t, routes, "/debug/alarms")
	if got := strings.TrimSpace(w.Body.String()); got != "[]" {
		t.Errorf("empty alarms: %q", got)
	}

	r.Record(Event{Span: 7, Kind: KindRecv, Node: 100, Peer: 64999, Origin: 64999, Prefix: testPrefix})
	r.RecordAlarm(testPrefix, AlarmBundle{
		Span: 7, Node: 100, FromPeer: 64999, Origin: 64999, Verdict: "conflict",
		Existing: []uint32{65001}, Received: []uint32{64999}, Path: []uint32{64999},
	})

	w = serveRoute(t, routes, "/debug/alarms")
	var bundles []AlarmBundle
	if err := json.Unmarshal(w.Body.Bytes(), &bundles); err != nil {
		t.Fatalf("alarms json: %v\n%s", err, w.Body.String())
	}
	if len(bundles) != 1 || bundles[0].Prefix != "131.179.0.0/16" || len(bundles[0].Timeline) != 2 {
		t.Fatalf("bundles: %+v", bundles)
	}

	w = serveRoute(t, routes, "/debug/alarms/0")
	var b AlarmBundle
	if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.ID != 0 || b.Origin != 64999 {
		t.Errorf("alarm 0: %+v", b)
	}

	// ?span= filters the list to bundles for one message — the lookup
	// /debug/status exemplars use.
	w = serveRoute(t, routes, "/debug/alarms?span=7")
	bundles = nil
	if err := json.Unmarshal(w.Body.Bytes(), &bundles); err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 || bundles[0].Span != 7 {
		t.Errorf("span=7 bundles: %+v", bundles)
	}
	w = serveRoute(t, routes, "/debug/alarms?span=8")
	if got := strings.TrimSpace(w.Body.String()); got != "[]" {
		t.Errorf("span=8 bundles: %q", got)
	}
	if w = serveRoute(t, routes, "/debug/alarms?span=nope"); w.Code != http.StatusBadRequest {
		t.Errorf("bad span: status %d", w.Code)
	}

	if w = serveRoute(t, routes, "/debug/alarms/99"); w.Code != http.StatusNotFound {
		t.Errorf("missing alarm: status %d", w.Code)
	}
	if w = serveRoute(t, routes, "/debug/alarms/nope"); w.Code != http.StatusBadRequest {
		t.Errorf("bad alarm id: status %d", w.Code)
	}
}

func TestRoutesNilRecorder(t *testing.T) {
	routes := Routes(nil)
	for _, url := range []string{"/debug/trace", "/debug/alarms", "/debug/alarms/0"} {
		if w := serveRoute(t, routes, url); w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s with nil recorder: status %d", url, w.Code)
		}
	}
}
