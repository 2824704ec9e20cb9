package telemetry

import (
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry("t")
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("peers", "peer count")
	g.Set(3)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 1 {
		t.Errorf("gauge = %d, want 1", got)
	}
	// Re-registration returns the same instruments.
	if r.Counter("reqs_total", "requests") != c {
		t.Error("counter re-registration returned a new instrument")
	}
	if r.Gauge("peers", "peer count") != g {
		t.Error("gauge re-registration returned a new instrument")
	}
}

func TestVecSeriesIdentity(t *testing.T) {
	r := NewRegistry("t")
	v := r.CounterVec("msgs_total", "messages", "type")
	a := v.With("update")
	b := v.With("update")
	if a != b {
		t.Error("same label values produced distinct counters")
	}
	other := v.With("keepalive")
	if a == other {
		t.Error("distinct label values shared a counter")
	}
	a.Add(2)
	other.Inc()
	fams := r.Gather()
	if len(fams) != 1 || len(fams[0].Series) != 2 {
		t.Fatalf("gather: %+v", fams)
	}
	// Series sorted by label value: keepalive before update.
	if fams[0].Series[0].LabelValues[0] != "keepalive" || fams[0].Series[0].Value != 1 {
		t.Errorf("series[0] = %+v", fams[0].Series[0])
	}
	if fams[0].Series[1].LabelValues[0] != "update" || fams[0].Series[1].Value != 2 {
		t.Errorf("series[1] = %+v", fams[0].Series[1])
	}
}

// TestVecWithAllocs: looking up an existing series allocates at most
// the key's value slice; the speaker and the monitor do it once per
// alarm to count the alarm's class.
func TestVecWithAllocs(t *testing.T) {
	v := NewRegistry("t").CounterVec("alarms_total", "", "class")
	v.With("likely-hijack")
	if allocs := testing.AllocsPerRun(1000, func() { v.With("likely-hijack").Inc() }); allocs > 1 {
		t.Errorf("CounterVec.With on an existing series: %v allocs/op, want <= 1", allocs)
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry("t")
	r.Counter("x_total", "")
	for name, fn := range map[string]func(){
		"kind":      func() { r.Gauge("x_total", "") },
		"labels":    func() { r.CounterVec("x_total", "", "k") },
		"badName":   func() { r.Counter("bad-name", "") },
		"badLabel":  func() { r.CounterVec("y_total", "", "bad label") },
		"emptyName": func() { r.Counter("", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
