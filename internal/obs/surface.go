package obs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// SurfaceConfig is what a process hands its operator surface. Each
// optional input mounts its own routes; see docs/telemetry.md for the
// full table.
type SurfaceConfig struct {
	// Registry is served at /metrics and flattened into /debug/status;
	// required.
	Registry *telemetry.Registry
	// Ready gates /readyz and fills the status document's ready field.
	// Nil means always ready, and the status document omits the field.
	Ready *telemetry.Readiness
	// Stages supplies the /debug/status stage-latency breakdown.
	Stages *Recorder
	// Trace, when set, mounts /debug/trace and /debug/alarms[/id].
	Trace *trace.Recorder
	// Replay, when set, adds MRT replay progress to /debug/status.
	Replay *Progress
	// MIB, when set, is served at /debug/mib: the §4.2 management view
	// of the process (the speaker's MIB snapshot).
	MIB http.Handler
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// Surface is a running operator surface: one HTTP endpoint with every
// route its inputs call for.
type Surface struct {
	srv  *http.Server
	addr string
	// forcedClose counts Close calls whose graceful drain timed out.
	forcedClose *telemetry.Counter
	// shutdownTimeout bounds the graceful drain in Close before open
	// connections are cut; tests shorten it.
	shutdownTimeout time.Duration

	closeOnce sync.Once
	closeErr  error
	served    chan struct{} // closed when the serve loop returns
}

// Serve binds addr (host:port; port 0 picks a free port) and serves on
// one background goroutine until Close: /metrics (Prometheus text),
// /healthz (liveness: ok while the endpoint serves), /readyz
// (readiness: a 503 naming every failing probe) and /debug/status (the
// status document as JSON, runtime vitals included), plus the routes
// of each optional input that is set.
func Serve(addr string, cfg SurfaceConfig) (*Surface, error) {
	if cfg.Registry == nil {
		return nil, errors.New("obs: operator surface requires a registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metricsHandler{cfg.Registry})
	mux.Handle("/healthz", probeHandler{})
	mux.Handle("/readyz", probeHandler{cfg.Ready})
	mux.Handle("/debug/status", newStatusHandler(cfg))
	if cfg.Trace != nil {
		for pattern, h := range trace.Routes(cfg.Trace) {
			mux.Handle(pattern, h)
		}
	}
	if cfg.MIB != nil {
		mux.Handle("/debug/mib", cfg.MIB)
	}
	if cfg.Pprof {
		// net/http/pprof registers on http.DefaultServeMux, not this
		// mux; mount its handlers explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Registered up front so the series reads 0 from the first scrape,
	// not only after the first forced close.
	forcedClose := cfg.Registry.Counter("telemetry_admin_forced_close_total",
		"Admin endpoint closes whose graceful drain timed out and cut open connections.")
	s := &Surface{
		srv:             &http.Server{Handler: mux},
		addr:            ln.Addr().String(),
		forcedClose:     forcedClose,
		shutdownTimeout: 2 * time.Second,
		served:          make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		// ErrServerClosed is the Close path, not a failure; any other
		// error leaves the endpoint dead, which /healthz consumers will
		// notice as a refused connection.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address, or "" for a nil surface (the process
// serves none).
func (s *Surface) Addr() string {
	if s == nil {
		return ""
	}
	return s.addr
}

// Close drains the server gracefully (bounded by a 2s budget), then
// cuts remaining connections and waits for the serve loop to exit. A
// drain that times out is not an error: the cut ends the endpoint all
// the same, and telemetry_admin_forced_close_total counts it. Safe on
// a nil surface and more than once.
func (s *Surface) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.shutdownTimeout)
		defer cancel()
		// Idle keep-alive connections would otherwise only be reaped by
		// Shutdown's poll.
		s.srv.SetKeepAlivesEnabled(false)
		err := s.srv.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) {
			// A wedged scrape, or a client holding a connection that never
			// sent a request; Close cuts every connection.
			s.srv.Close()
			s.forcedClose.Inc()
			err = nil
		}
		<-s.served
		s.closeErr = err
	})
	return s.closeErr
}

// metricsHandler serves the registry in the Prometheus text format,
// whatever the request's query or Accept header asks for.
type metricsHandler struct{ r *telemetry.Registry }

func (h metricsHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.WritePrometheus(w, h.r); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// probeHandler answers "ok", or a 503 carrying every failing probe. A
// nil readiness always passes, which makes the zero value the liveness
// probe.
type probeHandler struct{ ready *telemetry.Readiness }

func (h probeHandler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	if err := h.ready.Check(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
