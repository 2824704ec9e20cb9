package telemetry

import (
	"math"
	"sort"
	"sync"
)

// DefBuckets are the default histogram bucket upper bounds, in seconds,
// chosen for network RTT / handler-latency style measurements.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ExpBuckets returns n bucket upper bounds starting at start and
// multiplying by factor — the exponential analogue of the unit-binned
// integer histograms in internal/stats, for continuous quantities whose
// interesting range spans orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// LinearBuckets returns n bucket upper bounds starting at start with
// the given width.
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("telemetry: LinearBuckets wants width > 0, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start += width
	}
	return out
}

// Histogram counts observations into cumulative-at-exposition buckets
// with fixed upper bounds, like a Prometheus histogram. One mutex guards
// the buckets. Its production writers do not contend for it: sessions
// observe keepalive RTT once per keepalive, and RIS-Live lag is observed
// only by the single decode goroutine.
//
// Construct via Registry.Histogram / HistogramVec; the zero value is
// not usable.
type Histogram struct {
	bounds []float64 // sorted ascending; +Inf is implicit

	mu     sync.Mutex
	counts []uint64 // per-bucket observation counts; guarded by mu
	count  uint64   // total observations; guarded by mu
	sum    float64  // sum of observed values; guarded by mu
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	for i := 1; i < len(bs); i++ {
		if bs[i] == bs[i-1] {
			panic("telemetry: duplicate histogram bucket bound")
		}
	}
	if len(bs) > 0 && math.IsInf(bs[len(bs)-1], +1) {
		bs = bs[:len(bs)-1] // +Inf is always implicit
	}
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs))}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	// Linear scan: bucket counts are small (≤ ~20) and the slice is a
	// single cache line or two; binary search costs more in branches.
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time histogram reading.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds (ascending, +Inf implicit).
	Bounds []float64
	// Counts[i] is the number of observations in (Bounds[i-1], Bounds[i]]
	// — per-bucket, not cumulative; encoders cumulate.
	Counts []uint64
	// Count is the total number of observations (including > last bound).
	Count uint64
	// Sum is the sum of all observed values.
	Sum float64
}

// Snapshot copies the buckets under the histogram's lock.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)),
	}
	h.mu.Lock()
	copy(snap.Counts, h.counts)
	snap.Count = h.count
	snap.Sum = h.sum
	h.mu.Unlock()
	return snap
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket counts
// by linear interpolation inside the bucket the rank lands in. The
// overflow bucket (observations above the last finite bound) has no
// upper edge, so estimates landing there clamp to the last finite
// bound — a deliberate under-estimate that keeps the value finite.
// Returns NaN when the snapshot holds no observations or no buckets.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := float64(rank-cum) / float64(c)
		return lo + frac*(hi-lo)
	}
	// Rank falls in the implicit +Inf bucket: clamp to the last bound.
	return s.Bounds[len(s.Bounds)-1]
}
