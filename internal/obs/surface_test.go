package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestSurfaceRoutes pins which routes each combination of inputs
// mounts: the base surface always answers, every optional input adds
// its own routes and nothing else, and a failing readiness probe turns
// /readyz (only) into a 503 naming the probe. /debug/runtime is not a
// route: runtime vitals are part of /debug/status.
func TestSurfaceRoutes(t *testing.T) {
	notReady := &telemetry.Readiness{}
	notReady.Register("rtr", func() bool { return false }, "cache not synced")
	mib := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"as":4}`))
	})
	paths := []string{
		"/metrics", "/healthz", "/readyz", "/debug/status", "/debug/runtime",
		"/debug/trace", "/debug/alarms", "/debug/mib", "/debug/pprof/",
	}
	base := map[string]int{
		"/metrics": 200, "/healthz": 200, "/readyz": 200,
		"/debug/status": 200,
	}
	with := func(extra map[string]int) map[string]int {
		out := make(map[string]int, len(base)+len(extra))
		for p, c := range base {
			out[p] = c
		}
		for p, c := range extra {
			out[p] = c
		}
		return out
	}
	cases := []struct {
		name string
		cfg  SurfaceConfig
		want map[string]int // path → status; absent paths want 404
	}{
		{"base", SurfaceConfig{}, base},
		{"ready", SurfaceConfig{Ready: &telemetry.Readiness{}, Stages: NewRecorder(), Replay: &Progress{}}, base},
		{"not ready", SurfaceConfig{Ready: notReady}, with(map[string]int{"/readyz": 503})},
		{"trace", SurfaceConfig{Trace: trace.NewRecorder(16)},
			with(map[string]int{"/debug/trace": 200, "/debug/alarms": 200})},
		{"mib", SurfaceConfig{MIB: mib}, with(map[string]int{"/debug/mib": 200})},
		{"pprof", SurfaceConfig{Pprof: true}, with(map[string]int{"/debug/pprof/": 200})},
		{"all", SurfaceConfig{Ready: notReady, Stages: NewRecorder(), Trace: trace.NewRecorder(16),
			Replay: &Progress{}, MIB: mib, Pprof: true},
			with(map[string]int{"/readyz": 503, "/debug/trace": 200, "/debug/alarms": 200,
				"/debug/mib": 200, "/debug/pprof/": 200})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Registry = telemetry.NewRegistry("t")
			s, err := Serve("127.0.0.1:0", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for _, path := range paths {
				want, ok := tc.want[path]
				if !ok {
					want = http.StatusNotFound
				}
				code, body := fetch(t, "http://"+s.Addr()+path)
				if code != want {
					t.Errorf("GET %s = %d, want %d", path, code, want)
				}
				if path == "/readyz" && code == http.StatusServiceUnavailable && !strings.Contains(body, "rtr") {
					t.Errorf("/readyz body %q does not name the failing probe", body)
				}
			}

			_, body := fetch(t, "http://"+s.Addr()+"/debug/status?format=json")
			var doc StatusDoc
			if err := json.Unmarshal([]byte(body), &doc); err != nil {
				t.Fatalf("decode /debug/status: %v", err)
			}
			if (doc.Ready != nil) != (tc.cfg.Ready != nil) {
				t.Errorf("status ready = %v with Ready input %v", doc.Ready, tc.cfg.Ready)
			}
			if (doc.Replay != nil) != (tc.cfg.Replay != nil) {
				t.Errorf("status replay = %v with Replay input %v", doc.Replay, tc.cfg.Replay)
			}
			if doc.Runtime == nil || doc.Runtime.Goroutines <= 0 {
				t.Errorf("status runtime = %+v, want a live sample", doc.Runtime)
			}
		})
	}
}

// TestServeStartsOnlyItsServeLoop: a surface runs one goroutine of its
// own, the HTTP serve loop, and Close ends it. Runtime vitals are read
// per /debug/status request, so nothing samples in the background.
func TestServeStartsOnlyItsServeLoop(t *testing.T) {
	s, err := Serve("127.0.0.1:0", SurfaceConfig{Registry: telemetry.NewRegistry("t"),
		Stages: NewRecorder(), Trace: trace.NewRecorder(16), Replay: &Progress{}})
	if err != nil {
		t.Fatal(err)
	}
	if n := goroutinesStartedByObs(); n != 1 {
		t.Errorf("Serve left %d goroutines of its own running, want 1 (the serve loop)", n)
	}
	if code, _ := fetch(t, "http://"+s.Addr()+"/debug/status"); code != http.StatusOK {
		t.Fatalf("/debug/status = %d", code)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := goroutinesStartedByObs(); n != 0 {
		t.Errorf("Close left %d goroutines of the surface running, want 0", n)
	}
}

// goroutinesStartedByObs counts the live goroutines this package's
// code started (their stacks end "created by repro/internal/obs.…").
func goroutinesStartedByObs() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "\ncreated by repro/internal/obs.")
}

func fetch(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}
