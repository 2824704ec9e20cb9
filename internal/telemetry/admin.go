package telemetry

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// AdminConfig parameterizes an admin endpoint.
type AdminConfig struct {
	// Registry is served at /metrics; required.
	Registry *Registry
	// Ready, if set, is consulted by /readyz — the *readiness* probe
	// (is the process actually serving validated data: RTR cache synced,
	// stream connected, replay complete). A non-nil error turns the
	// probe into a 503 carrying the error text. Nil means always ready.
	// /healthz, the liveness probe, answers ok while the endpoint
	// serves.
	Ready func() error
	// Debug maps extra URL patterns to handlers (the MIB, the flight
	// recorder's routes, /debug/status, ...). Patterns follow
	// http.ServeMux semantics.
	Debug map[string]http.Handler
	// Pprof, when true, mounts net/http/pprof under /debug/pprof/ so a
	// live process can be profiled through the same admin port.
	Pprof bool

	// shutdownTimeout bounds the graceful drain in Close before open
	// connections are cut. Zero selects 2s; tests shorten it.
	shutdownTimeout time.Duration
}

// Admin is a running admin HTTP endpoint serving /metrics (Prometheus
// text, or JSON with ?format=json or an application/json Accept
// header), /healthz, /readyz and the configured debug routes.
type Admin struct {
	cfg  AdminConfig
	srv  *http.Server
	addr string

	closeOnce sync.Once
	closeErr  error
	served    chan struct{} // closed when Serve returns
}

// ServeAdmin binds addr (host:port; port 0 picks a free port) and
// serves the admin endpoint on a background goroutine until Close.
func ServeAdmin(addr string, cfg AdminConfig) (*Admin, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("telemetry: admin endpoint requires a registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: admin listen %s: %w", addr, err)
	}
	a := &Admin{
		cfg:    cfg,
		addr:   ln.Addr().String(),
		served: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/healthz", serveProbe(nil))
	mux.HandleFunc("/readyz", serveProbe(cfg.Ready))
	for pattern, h := range cfg.Debug {
		mux.Handle(pattern, h)
	}
	if cfg.Pprof {
		// http.DefaultServeMux registration in net/http/pprof doesn't
		// apply to this mux; mount the handlers explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	a.srv = &http.Server{Handler: mux}
	go func() {
		defer close(a.served)
		// ErrServerClosed is the Close path, not a failure; any other
		// error leaves the endpoint dead, which /healthz consumers will
		// notice as a refused connection.
		_ = a.srv.Serve(ln)
	}()
	return a, nil
}

// Addr returns the bound address.
func (a *Admin) Addr() string { return a.addr }

func (a *Admin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	asJSON := r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
	if asJSON {
		w.Header().Set("Content-Type", "application/json")
		if err := WriteJSON(w, a.cfg.Registry); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WritePrometheus(w, a.cfg.Registry); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// serveProbe answers "ok", or a 503 carrying the probe's error. A nil
// probe always passes.
func serveProbe(probe func() error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		if probe != nil {
			if err := probe(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}
}

// Close drains the server gracefully (bounded by a 2s budget), then
// cuts remaining connections, and waits for the serve goroutine to
// exit. A drain that times out is not an error: the cut ends the
// endpoint all the same, and telemetry_admin_forced_close_total counts
// it. Safe to call multiple times.
func (a *Admin) Close() error {
	a.closeOnce.Do(func() {
		timeout := a.cfg.shutdownTimeout
		if timeout == 0 {
			timeout = 2 * time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		// Idle keep-alive connections would otherwise only be reaped by
		// Shutdown's poll.
		a.srv.SetKeepAlivesEnabled(false)
		err := a.srv.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) {
			// A wedged scrape, or a client holding a connection that never
			// sent a request; Close cuts every connection.
			a.srv.Close()
			a.cfg.Registry.Counter("telemetry_admin_forced_close_total",
				"Admin endpoint closes whose graceful drain timed out and cut open connections.").Inc()
			err = nil
		}
		<-a.served
		a.closeErr = err
	})
	return a.closeErr
}
