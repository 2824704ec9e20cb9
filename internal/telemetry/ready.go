package telemetry

import (
	"fmt"
	"strings"
	"sync"
)

// Readiness aggregates named readiness probes into one check, the one
// the operator surface's /readyz serves. Probes are evaluated in
// registration order and every failing probe is reported, so an
// operator reading the /readyz body sees the full set of blockers, not
// just the first.
//
// The zero value is ready to use; Register is safe against concurrent
// Check but is expected at wiring time.
type Readiness struct {
	mu     sync.Mutex
	probes []probe
}

// probe is one named readiness condition.
type probe struct {
	name   string
	ok     func() bool
	reason string
}

// Register adds a named probe: the process is not ready while ok
// reports false, and reason says why. A nil ok is ignored.
func (r *Readiness) Register(name string, ok func() bool, reason string) {
	if r == nil || ok == nil {
		return
	}
	r.mu.Lock()
	r.probes = append(r.probes, probe{name: name, ok: ok, reason: reason})
	r.mu.Unlock()
}

// Check runs every probe and returns nil when all pass, else one error
// naming each failure. Nil receivers and empty sets are always ready.
func (r *Readiness) Check() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	probes := r.probes
	r.mu.Unlock()
	var fails []string
	for _, p := range probes {
		if !p.ok() {
			fails = append(fails, p.name+": "+p.reason)
		}
	}
	if len(fails) == 0 {
		return nil
	}
	return fmt.Errorf("not ready: %s", strings.Join(fails, "; "))
}
