package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout, shared by every histogram: powers of two in
// nanoseconds. Bucket 0 holds everything under 256ns; bucket i holds
// [2^(7+i), 2^(8+i)) ns. The last finite bucket ends just under 2^42 ns
// (~73 min), so a 30s keepalive round trip or an hour of stream lag
// still lands in a finite bucket; the final bucket is the +Inf
// overflow.
const (
	bucketMinBits = 8
	numBuckets    = 36
)

// bucketOf maps a nanosecond duration to its bucket index.
func bucketOf(ns int64) int {
	b := bits.Len64(uint64(ns))
	if b <= bucketMinBits {
		return 0
	}
	return min(b-bucketMinBits, numBuckets-1)
}

// BucketBound returns the inclusive upper bound of bucket i
// (math.MaxInt64 for the overflow bucket).
func BucketBound(i int) time.Duration {
	if i < 0 {
		return 0
	}
	if i >= numBuckets-1 {
		return math.MaxInt64
	}
	return 1<<(bucketMinBits+i) - 1
}

// bucketLower returns the inclusive lower edge of bucket i, the
// interpolation origin for quantiles landing there.
func bucketLower(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	return 1 << (bucketMinBits + i - 1)
}

// boundsSeconds are the finite bucket bounds in seconds, the exposition
// view every snapshot shares.
var boundsSeconds = func() []float64 {
	out := make([]float64, numBuckets-1)
	for i := range out {
		out[i] = BucketBound(i).Seconds()
	}
	return out
}()

// Histogram counts durations into the fixed power-of-two buckets. The
// record path is lock-free and allocation-free: atomic adds into fixed
// arrays, a CAS for the maximum. Each bucket keeps an exemplar, the
// span ID of a recent observation that landed in it, so an outlier
// links to its trace instead of being an anonymous count.
//
// The zero value is ready to use; all methods are safe for concurrent
// use.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	// exemplars[i] holds the span ID of a recent observation in bucket
	// i (0 = none yet). Last writer wins on purpose: "a recent one" is
	// the contract, not "the maximum".
	exemplars [numBuckets]atomic.Uint64
	count     atomic.Uint64
	sumNs     atomic.Int64
	maxNs     atomic.Int64
}

// Observe records one observation of d. Negative durations count as
// zero.
func (h *Histogram) Observe(d time.Duration) { h.ObserveSpan(d, 0) }

// ObserveSpan records one observation of d and makes span the landing
// bucket's exemplar (span 0 leaves the exemplar untouched).
func (h *Histogram) ObserveSpan(d time.Duration, span uint64) {
	ns := max(int64(d), 0)
	i := bucketOf(ns)
	h.counts[i].Add(1)
	if span != 0 {
		h.exemplars[i].Store(span)
	}
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// HistogramSnapshot is a point-in-time histogram reading.
type HistogramSnapshot struct {
	// Bounds are the finite bucket upper bounds in seconds, ascending;
	// +Inf is implicit.
	Bounds []float64
	// Counts[i] is the number of observations in (Bounds[i-1], Bounds[i]]
	// — per-bucket, not cumulative; encoders cumulate. The last entry,
	// Counts[len(Bounds)], is the +Inf overflow bucket.
	Counts []uint64
	// Exemplars[i] is the span ID of a recent observation in bucket i
	// (0 = none recorded).
	Exemplars []uint64
	// Count is the total number of observations, the sum of Counts.
	Count uint64
	// Sum is the sum of all observed values, in seconds.
	Sum float64
	// Max is the largest observation.
	Max time.Duration
}

// Snapshot reads the histogram without stopping its writers. Count is
// summed from the bucket reads, so the cumulative exposition stays
// monotone even while observations land mid-read.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Bounds:    boundsSeconds,
		Counts:    make([]uint64, numBuckets),
		Exemplars: make([]uint64, numBuckets),
		Sum:       time.Duration(h.sumNs.Load()).Seconds(),
		Max:       time.Duration(h.maxNs.Load()),
	}
	for i := range snap.Counts {
		snap.Counts[i] = h.counts[i].Load()
		snap.Exemplars[i] = h.exemplars[i].Load()
		snap.Count += snap.Counts[i]
	}
	return snap
}

// Quantile estimates the q-quantile (0 < q ≤ 1) by linear
// interpolation inside the bucket the rank lands in, never beyond the
// observed maximum. Zero when the snapshot holds no observations.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(s.Count))), 1)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		lo, hi := bucketLower(i), min(BucketBound(i), s.Max)
		if hi < lo {
			return lo
		}
		frac := float64(rank-cum) / float64(c)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return s.Max
}
