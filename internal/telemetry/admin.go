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
	// MIB, if set, is served at /debug/mib — the §4.2 management view of
	// whatever process owns this endpoint (speaker MIB, collector peer
	// table, ...).
	MIB http.Handler
	// Health, if set, is consulted by /healthz — the *liveness* probe
	// (is the process up and serving); a non-nil error turns the probe
	// into a 503. Nil means always live.
	Health func() error
	// Ready, if set, is consulted by /readyz — the *readiness* probe
	// (is the process actually serving validated data: RTR cache synced,
	// stream connected, replay complete). A non-nil error turns the
	// probe into a 503 carrying the error text. Nil means /readyz
	// mirrors /healthz, preserving the pre-split single-probe behavior.
	Ready func() error
	// ShutdownTimeout bounds the graceful drain in Close before open
	// connections are cut. Zero selects 2s.
	ShutdownTimeout time.Duration
	// Debug maps extra URL patterns to handlers (e.g. the flight
	// recorder's /debug/trace and /debug/alarms routes from
	// trace.Routes). Patterns follow http.ServeMux semantics.
	Debug map[string]http.Handler
	// Pprof, when true, mounts net/http/pprof under /debug/pprof/ so a
	// live process can be profiled through the same admin port.
	Pprof bool
}

// Admin is a running admin HTTP endpoint serving /metrics (Prometheus
// text, or JSON with ?format=json or an application/json Accept
// header), /healthz, and /debug/mib.
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
	a.srv = &http.Server{Handler: a.Handler()}
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

// Handler returns the admin mux (also used by tests to serve the same
// routes without a socket).
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/readyz", a.handleReadyz)
	if a.cfg.MIB != nil {
		mux.Handle("/debug/mib", a.cfg.MIB)
	}
	for pattern, h := range a.cfg.Debug {
		mux.Handle(pattern, h)
	}
	if a.cfg.Pprof {
		// http.DefaultServeMux registration in net/http/pprof doesn't
		// apply to this mux; mount the handlers explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

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

func (a *Admin) handleHealthz(w http.ResponseWriter, r *http.Request) {
	serveProbe(w, a.cfg.Health)
}

func (a *Admin) handleReadyz(w http.ResponseWriter, r *http.Request) {
	probe := a.cfg.Ready
	if probe == nil {
		probe = a.cfg.Health
	}
	serveProbe(w, probe)
}

func serveProbe(w http.ResponseWriter, probe func() error) {
	if probe != nil {
		if err := probe(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Close drains the server gracefully (bounded by ShutdownTimeout), then
// cuts remaining connections, and waits for the serve goroutine to
// exit. A drain that times out is not an error: the cut ends the
// endpoint all the same, and telemetry_admin_forced_close_total counts
// it. Safe to call multiple times.
func (a *Admin) Close() error {
	a.closeOnce.Do(func() {
		timeout := a.cfg.ShutdownTimeout
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
