package obs

import (
	"net/http"

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

// Surface is a running operator surface: the admin endpoint with every
// route its inputs call for, and the runtime sampler behind
// /debug/status and /debug/runtime.
type Surface struct {
	admin   *telemetry.Admin
	sampler *Sampler
}

// Serve binds addr (host:port; port 0 picks a free port), starts the
// runtime sampler, and serves /metrics, /healthz, /readyz,
// /debug/status and /debug/runtime, plus the routes of each optional
// input that is set.
func Serve(addr string, cfg SurfaceConfig) (*Surface, error) {
	sampler := NewSampler()
	sampler.Start()
	routes := make(map[string]http.Handler)
	if cfg.Trace != nil {
		routes = trace.Routes(cfg.Trace)
	}
	routes["/debug/status"] = newStatusHandler(cfg, sampler)
	routes["/debug/runtime"] = sampler
	if cfg.MIB != nil {
		routes["/debug/mib"] = cfg.MIB
	}
	admin, err := telemetry.ServeAdmin(addr, telemetry.AdminConfig{
		Registry: cfg.Registry,
		Ready:    cfg.Ready.Check,
		Debug:    routes,
		Pprof:    cfg.Pprof,
	})
	if err != nil {
		sampler.Close()
		return nil, err
	}
	return &Surface{admin: admin, sampler: sampler}, nil
}

// Addr returns the bound address, or "" for a nil surface (the process
// serves none).
func (s *Surface) Addr() string {
	if s == nil {
		return ""
	}
	return s.admin.Addr()
}

// Close stops serving (see telemetry.Admin.Close), then stops the
// sampler and waits for its loop to exit. Safe on a nil surface and
// more than once.
func (s *Surface) Close() error {
	if s == nil {
		return nil
	}
	err := s.admin.Close()
	s.sampler.Close()
	return err
}
