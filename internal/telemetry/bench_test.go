package telemetry

import (
	"io"
	"testing"
	"time"
)

// BenchmarkTelemetryHotPath measures the full per-update cost the
// speaker's hot path pays: one counter increment plus one histogram
// observation.
func BenchmarkTelemetryHotPath(b *testing.B) {
	r := NewRegistry("bench")
	c := r.Counter("updates_total", "")
	h := r.Histogram("lat_seconds", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
			h.Observe(700 * time.Microsecond)
		}
	})
}

// BenchmarkTelemetryCounterInc isolates the wait-free counter path.
func BenchmarkTelemetryCounterInc(b *testing.B) {
	c := NewRegistry("bench").Counter("updates_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkTelemetryHistogramObserve isolates the histogram path.
func BenchmarkTelemetryHistogramObserve(b *testing.B) {
	h := NewRegistry("bench").Histogram("lat_seconds", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(700 * time.Microsecond)
		}
	})
}

// BenchmarkTelemetryVecWith measures the labeled lookup path, which hot
// paths should avoid by caching — this quantifies why.
func BenchmarkTelemetryVecWith(b *testing.B) {
	v := NewRegistry("bench").CounterVec("msgs_total", "", "type")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v.With("update").Inc()
		}
	})
}

// BenchmarkTelemetryScrape measures a full Prometheus-text exposition
// of a realistically sized registry.
func BenchmarkTelemetryScrape(b *testing.B) {
	r := NewRegistry("bench")
	for _, name := range []string{"a_total", "b_total", "c_total", "d_total"} {
		v := r.CounterVec(name, "", "type")
		for _, t := range []string{"open", "update", "notification", "keepalive"} {
			v.With(t).Add(12345)
		}
	}
	h := r.Histogram("lat_seconds", "")
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i) * time.Second / 997)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WritePrometheus(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}
