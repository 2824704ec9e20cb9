package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// serve starts a surface on a free loopback port and closes it when the
// test ends.
func serve(t *testing.T, cfg SurfaceConfig) *Surface {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry("t")
	}
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// get fetches url and fails the test unless it answers 200.
func get(t *testing.T, url string) string {
	t.Helper()
	code, body := fetch(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, code)
	}
	return body
}

func scrapeQuietly(url string) {
	resp, err := http.Get(url)
	if err != nil {
		return // Close may have won the race; that is the point.
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func TestAdminEndpoints(t *testing.T) {
	r := telemetry.NewRegistry("t")
	r.Counter("reqs_total", "requests").Add(7)
	mib := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"mib":true}`))
	})
	s := serve(t, SurfaceConfig{Registry: r, MIB: mib})

	// /metrics has one encoding: no query or Accept header selects
	// anything but Prometheus text. The forced-close counter is
	// registered by Serve, so a fresh surface shows it at 0.
	for _, tc := range []struct{ query, accept string }{
		{"", ""},
		{"?format=json", ""},
		{"", "application/json"},
		{"?format=json", "application/json"},
	} {
		req, err := http.NewRequest("GET", "http://"+s.Addr()+"/metrics"+tc.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("/metrics%s (Accept %q): Content-Type %q, want Prometheus text", tc.query, tc.accept, ct)
		}
		for _, want := range []string{"\nt_reqs_total 7\n", "\nt_telemetry_admin_forced_close_total 0\n"} {
			if !strings.Contains(string(body), want) {
				t.Errorf("/metrics%s (Accept %q) lacks %q:\n%s", tc.query, tc.accept, want, body)
			}
		}
	}
	if got := get(t, "http://"+s.Addr()+"/healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}
	if got := get(t, "http://"+s.Addr()+"/debug/mib"); got != `{"mib":true}` {
		t.Errorf("/debug/mib = %q", got)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestAdminDebugAndPprofRoutes(t *testing.T) {
	extra := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("mib view"))
	})
	s := serve(t, SurfaceConfig{MIB: extra, Pprof: true})

	if got := get(t, "http://"+s.Addr()+"/debug/mib"); got != "mib view" {
		t.Errorf("/debug/mib = %q", got)
	}
	if got := get(t, "http://"+s.Addr()+"/debug/pprof/cmdline"); got == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	if got := get(t, "http://"+s.Addr()+"/debug/pprof/"); !strings.Contains(got, "pprof") {
		t.Errorf("/debug/pprof/ index: %q", got)
	}
}

// TestAdminReadyzSplit pins the liveness/readiness split: /healthz
// answers "is the process up", /readyz answers "is it serving validated
// data", and the two probes are independent.
func TestAdminReadyzSplit(t *testing.T) {
	var synced atomic.Bool
	ready := &telemetry.Readiness{}
	ready.Register("rtr", synced.Load, "cache not synced")
	s := serve(t, SurfaceConfig{Ready: ready})

	// Liveness passes from the start; readiness gates on the probe.
	if got := get(t, "http://"+s.Addr()+"/healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}
	code, body := fetch(t, "http://"+s.Addr()+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before sync: status %d", code)
	}
	if !strings.Contains(body, "rtr: cache not synced") {
		t.Errorf("/readyz body = %q, want the probe error", body)
	}

	synced.Store(true)
	if got := get(t, "http://"+s.Addr()+"/readyz"); got != "ok\n" {
		t.Errorf("/readyz after sync = %q", got)
	}
}

// TestAdminShutdownDuringSlowScrape covers a debug handler that stalls
// mid-response while the surface shuts down. Close must return within
// the shutdown budget (graceful drain times out, connections are cut),
// the stalled handler must be released via its request context, and no
// goroutine may leak. Runs under -race via `make e2e`.
func TestAdminShutdownDuringSlowScrape(t *testing.T) {
	before := runtime.NumGoroutine()

	handlerDone := make(chan struct{})
	inHandler := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(handlerDone)
		w.Header().Set("Content-Type", "text/plain")
		w.Write([]byte("partial view\n"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		close(inHandler)
		// Stall like a wedged scraper until the server cuts the
		// connection (which cancels the request context) or a backstop
		// proves the release never came.
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})

	reg := telemetry.NewRegistry("t")
	s, err := Serve("127.0.0.1:0", SurfaceConfig{Registry: reg, MIB: slow})
	if err != nil {
		t.Fatal(err)
	}
	s.shutdownTimeout = 50 * time.Millisecond

	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		scrapeQuietly("http://" + s.Addr() + "/debug/mib")
	}()
	<-inHandler

	start := time.Now()
	closeDone := make(chan error, 1)
	go func() { closeDone <- s.Close() }()
	select {
	case err := <-closeDone:
		// The graceful drain must have timed out on the wedged scrape —
		// that is the scenario — and Close still returns promptly, with
		// the cut counted rather than reported as a failure.
		if err != nil {
			t.Errorf("Close: %v, want nil after the forced close", err)
		}
		if n := reg.Counter("telemetry_admin_forced_close_total", "").Value(); n != 1 {
			t.Errorf("forced closes = %d, want 1", n)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("Close took %v, want bounded by the shutdown budget", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while a slow scrape was in flight")
	}

	// The cut connection must release both the handler and the client.
	for what, ch := range map[string]chan struct{}{"handler": handlerDone, "scrape": scrapeDone} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s goroutine still blocked after Close", what)
		}
	}

	// No goroutine leak: the serve loop, the sampler, the handler, and
	// the scraper are all gone once Close returns and the channels fire.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: before=%d after=%d — leak", before, runtime.NumGoroutine())
}

// TestAdminCloseWithIdleConnection: a client that opens a connection and
// never sends a request stalls the graceful drain for its whole budget.
// Close must still succeed, within the default 2 s budget plus the cut.
func TestAdminCloseWithIdleConnection(t *testing.T) {
	reg := telemetry.NewRegistry("t")
	s := serve(t, SurfaceConfig{Registry: reg})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("Close with an idle connection: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= 3*time.Second {
		t.Errorf("Close took %v, want under 3s", elapsed)
	}
	if n := reg.Counter("telemetry_admin_forced_close_total", "").Value(); n != 1 {
		t.Errorf("forced closes = %d, want 1", n)
	}
}

// TestCloseWhileScraping races Close against in-flight scrapes, the
// daemon-shutdown-during-scrape window.
func TestCloseWhileScraping(t *testing.T) {
	for i := 0; i < 50; i++ {
		r := telemetry.NewRegistry("soak")
		r.Counter("ops_total", "").Inc()
		s, err := Serve("127.0.0.1:0", SurfaceConfig{Registry: r})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			scrapeQuietly("http://" + s.Addr() + "/metrics")
		}()
		go func() {
			defer wg.Done()
			s.Close()
		}()
		wg.Wait()
		// Close again after the race settles: must stay idempotent.
		if err := s.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
	}
}

// TestLongLatencyQuantiles: a keepalive round trip runs up to the 30s
// keepalive interval and a stalled RIS-Live feed lags by minutes to
// hours; their quantiles must report what was observed, not the end
// of a short bucket layout.
func TestLongLatencyQuantiles(t *testing.T) {
	reg := telemetry.NewRegistry("moas")
	rtt := reg.Histogram("session_keepalive_rtt_seconds", "keepalive RTT")
	for _, s := range []time.Duration{5, 15, 20, 25, 28} {
		rtt.Observe(s * time.Second)
	}
	reg.Histogram("rislive_lag_seconds", "stream lag").Observe(time.Hour)
	s := serve(t, SurfaceConfig{Registry: reg})

	var status StatusDoc
	if err := json.Unmarshal([]byte(get(t, "http://"+s.Addr()+"/debug/status")), &status); err != nil {
		t.Fatal(err)
	}
	type want struct{ p50Lo, p50Hi, p90Lo, p99 float64 }
	for name, w := range map[string]want{
		// Median 20s, max 28s: the estimate lands between the
		// neighbours of the median and the tail reaches the maximum.
		"moas_session_keepalive_rtt_seconds": {15, 25, 25, 28},
		"moas_rislive_lag_seconds":           {3600, 3600, 3600, 3600},
	} {
		hs, ok := status.Histograms[name]
		if !ok {
			t.Fatalf("%s: missing from /debug/status", name)
		}
		if hs.P50 < w.p50Lo || hs.P50 > w.p50Hi || hs.P90 < w.p90Lo || hs.P99 != w.p99 {
			t.Errorf("%s: p50/p90/p99 = %v/%v/%v, want p50 in [%v, %v], p90 >= %v, p99 = %v",
				name, hs.P50, hs.P90, hs.P99, w.p50Lo, w.p50Hi, w.p90Lo, w.p99)
		}
	}
}
