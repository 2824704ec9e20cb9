package telemetry

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestReadiness(t *testing.T) {
	var r Readiness
	if err := r.Check(); err != nil {
		t.Fatalf("empty readiness: %v", err)
	}

	var rtrOK, mrtOK atomic.Bool
	r.Register("rtr", rtrOK.Load, "cache not synced")
	r.Register("mrt-replay", mrtOK.Load, "replay in progress")
	r.Register("nil-probe", nil, "never consulted") // ignored

	err := r.Check()
	if err == nil {
		t.Fatal("want not-ready")
	}
	// Every failing probe must be named, not just the first.
	for _, want := range []string{"rtr: cache not synced", "mrt-replay: replay in progress"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	rtrOK.Store(true)
	if err := r.Check(); err == nil || strings.Contains(err.Error(), "rtr:") {
		t.Fatalf("after rtr sync: %v", err)
	}
	mrtOK.Store(true)
	if err := r.Check(); err != nil {
		t.Fatalf("all synced: %v", err)
	}

	var nilR *Readiness
	nilR.Register("x", func() bool { return false }, "boom")
	if err := nilR.Check(); err != nil {
		t.Fatalf("nil readiness: %v", err)
	}
}
