// Package telemetry is the repo's stdlib-only metrics layer: atomic
// counters and gauges, lock-free latency histograms, and a named
// Registry of labeled metric families with one exposition encoding,
// the Prometheus text format, which the operator surface (internal/obs)
// serves at /metrics and flattens into /debug/status.
//
// The paper's detection scheme only earns operational trust if its
// behaviour is observable: alarm rates, MOAS-list validation counts,
// session churn and propagation latencies are what an operator watches.
// Every subsystem (session, speaker, collector, daemon, monitor)
// registers its instruments here; cmd/* serve the registry via
// -metrics-addr.
//
// Concurrency: instruments are safe for concurrent use and their update
// paths never lock: counters and gauges are one atomic add, histograms
// a few atomic adds plus a CAS for the maximum.
// Registration is cheap but takes locks; hot paths should register once
// and cache the returned instrument, as the instrumented packages do.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric families a Registry can hold.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Counter is a monotonically increasing value. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use; all methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds named metric families. The registry name is prefixed
// onto every family name at exposition (name_family), mirroring the
// Prometheus namespace convention.
type Registry struct {
	name string

	mu       sync.Mutex
	families map[string]*family // guarded by mu
}

// family is one named metric of one kind with a fixed label-key set and
// one series per distinct label-value tuple.
type family struct {
	name      string
	help      string
	kind      Kind
	labelKeys []string

	mu     sync.Mutex
	series map[string]*series // guarded by mu; keyed by joined label values
}

// series is one (labels → instrument) binding inside a family.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// NewRegistry returns an empty registry. name becomes the metric-name
// prefix ("" for none) and must be a valid metric-name fragment.
func NewRegistry(name string) *Registry {
	if name != "" {
		mustValidName(name)
	}
	return &Registry{
		name:     name,
		families: make(map[string]*family),
	}
}

// fullName joins the registry prefix onto a family name.
func (r *Registry) fullName(name string) string {
	if r.name == "" {
		return name
	}
	return r.name + "_" + name
}

// getFamily returns the named family, creating it on first use. It
// panics on a kind or label-key mismatch with an earlier registration:
// that is a programming error, not a runtime condition.
func (r *Registry) getFamily(name, help string, kind Kind, labelKeys []string) *family {
	mustValidName(name)
	for _, k := range labelKeys {
		mustValidName(k)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:      name,
			help:      help,
			kind:      kind,
			labelKeys: append([]string(nil), labelKeys...),
			series:    make(map[string]*series),
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	if len(f.labelKeys) != len(labelKeys) {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with %d labels (was %d)", name, len(labelKeys), len(f.labelKeys)))
	}
	for i, k := range labelKeys {
		if f.labelKeys[i] != k {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with label %q (was %q)", name, k, f.labelKeys[i]))
		}
	}
	return f
}

// keyEscaper escapes the series-key separator in label values. A
// Replacer is safe for concurrent use, so every With shares this one.
var keyEscaper = strings.NewReplacer(`\`, `\\`, "\x1f", `\u`)

// seriesKey joins label values into a map key. The separator cannot
// occur unescaped ambiguity-free in values, so escape it.
func seriesKey(values []string) string {
	if len(values) == 0 {
		return ""
	}
	esc := make([]string, len(values))
	for i, v := range values {
		esc[i] = keyEscaper.Replace(v)
	}
	return strings.Join(esc, "\x1f")
}

// get returns the series for the given label values, creating its
// instrument on first use.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labelKeys) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labelKeys), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		s.counter = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	case KindHistogram:
		s.hist = &Histogram{}
	}
	f.series[key] = s
	return s
}

// Counter returns the unlabeled counter with the given name, creating
// it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.getFamily(name, help, KindCounter, nil).get(nil).counter
}

// Gauge returns the unlabeled gauge with the given name, creating it on
// first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.getFamily(name, help, KindGauge, nil).get(nil).gauge
}

// Histogram returns the unlabeled histogram with the given name,
// creating it on first use. Every histogram shares the fixed
// power-of-two bucket layout and is exposed in seconds.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.getFamily(name, help, KindHistogram, nil).get(nil).hist
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{f: r.getFamily(name, help, KindCounter, labelKeys)}
}

// With returns the counter for the given label values, creating it on
// first use. Hot paths should cache the result.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues).counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	return &GaugeVec{f: r.getFamily(name, help, KindGauge, labelKeys)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.get(labelValues).gauge
}

// FamilySnapshot is one family's point-in-time exposition view.
type FamilySnapshot struct {
	Name      string // full name including the registry prefix
	Help      string
	Kind      Kind
	LabelKeys []string
	Series    []SeriesSnapshot
}

// SeriesSnapshot is one series inside a FamilySnapshot.
type SeriesSnapshot struct {
	LabelValues []string
	// Value holds the counter or gauge reading (unused for histograms).
	Value float64
	// Histogram holds the histogram reading (histogram families only).
	Histogram *HistogramSnapshot
}

// Gather returns a consistent-enough snapshot of every family, sorted
// by name with series sorted by label values — the stable order the
// Prometheus encoder and /debug/status rely on. Every instrument is read atomically, without
// stopping its writers.
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{
			Name:      r.fullName(f.name),
			Help:      f.help,
			Kind:      f.kind,
			LabelKeys: f.labelKeys,
		}
		f.mu.Lock()
		sers := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			sers = append(sers, s)
		}
		f.mu.Unlock()
		sort.Slice(sers, func(i, j int) bool {
			return lessStrings(sers[i].labelValues, sers[j].labelValues)
		})
		for _, s := range sers {
			ss := SeriesSnapshot{LabelValues: s.labelValues}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.counter.Value())
			case KindGauge:
				ss.Value = float64(s.gauge.Value())
			case KindHistogram:
				snap := s.hist.Snapshot()
				ss.Histogram = &snap
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

func lessStrings(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// mustValidName panics unless s is a valid Prometheus metric/label name
// fragment: [a-zA-Z_][a-zA-Z0-9_]*.
func mustValidName(s string) {
	if s == "" {
		panic("telemetry: empty name")
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if alpha || (i > 0 && c >= '0' && c <= '9') {
			continue
		}
		panic(fmt.Sprintf("telemetry: invalid name %q", s))
	}
}
