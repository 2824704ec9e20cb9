package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
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

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("rtt_seconds", "round trips", []float64{0.01, 0.1, 1})
	h.Observe(0.01) // exactly on a bound: counted in that bucket (le is inclusive)
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(99) // above the last bound: only count/sum
	snap := h.Snapshot()
	if want := []uint64{2, 0, 1}; !equalU64(snap.Counts, want) {
		t.Errorf("counts = %v, want %v", snap.Counts, want)
	}
	if snap.Count != 4 {
		t.Errorf("count = %d, want 4", snap.Count)
	}
	if want := 0.01 + 0.005 + 0.5 + 99; math.Abs(snap.Sum-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", snap.Sum, want)
	}
}

func TestHistogramInfBoundDropped(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("x_seconds", "", []float64{1, math.Inf(1)})
	if got := len(h.Snapshot().Bounds); got != 1 {
		t.Errorf("bounds = %d, want 1 (+Inf implicit)", got)
	}
}

func TestBucketHelpers(t *testing.T) {
	if got := ExpBuckets(1, 10, 3); !equalF64(got, []float64{1, 10, 100}) {
		t.Errorf("ExpBuckets = %v", got)
	}
	if got := LinearBuckets(0.5, 0.5, 3); !equalF64(got, []float64{0.5, 1, 1.5}) {
		t.Errorf("LinearBuckets = %v", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("x_seconds", "", []float64{1})
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != goroutines*per || snap.Counts[0] != goroutines*per {
		t.Errorf("snapshot = %+v, want %d observations", snap, goroutines*per)
	}
}

func TestAdminEndpoints(t *testing.T) {
	r := NewRegistry("t")
	r.Counter("reqs_total", "requests").Add(7)
	mib := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"mib":true}`))
	})
	a, err := ServeAdmin("127.0.0.1:0", AdminConfig{Registry: r, Debug: map[string]http.Handler{"/debug/mib": mib}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	text := get(t, "http://"+a.Addr()+"/metrics")
	if !strings.Contains(text, "t_reqs_total 7") {
		t.Errorf("/metrics:\n%s", text)
	}
	js := get(t, "http://"+a.Addr()+"/metrics?format=json")
	var doc struct {
		Metrics []struct {
			Name   string `json:"name"`
			Series []struct {
				Value *float64 `json:"value"`
			} `json:"series"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(js), &doc); err != nil {
		t.Fatalf("metrics json: %v\n%s", err, js)
	}
	if len(doc.Metrics) != 1 || doc.Metrics[0].Name != "t_reqs_total" || *doc.Metrics[0].Series[0].Value != 7 {
		t.Errorf("json doc = %+v", doc)
	}
	if got := get(t, "http://"+a.Addr()+"/healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}
	if got := get(t, "http://"+a.Addr()+"/debug/mib"); got != `{"mib":true}` {
		t.Errorf("/debug/mib = %q", got)
	}
	if err := a.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
