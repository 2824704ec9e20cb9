package telemetry

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {255, 0},
		{256, 1}, {511, 1},
		{512, 2},
		{1 << 20, 13}, {1<<21 - 1, 13},
		{math.MaxInt64, numBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every value must land in a bucket whose bound contains it.
	for i := 0; i < numBuckets-1; i++ {
		ub := int64(BucketBound(i))
		if got := bucketOf(ub); got != i {
			t.Errorf("bucketOf(bound %d) = %d, want %d", ub, got, i)
		}
		if got := bucketOf(ub + 1); got != i+1 {
			t.Errorf("bucketOf(bound+1 %d) = %d, want %d", ub+1, got, i+1)
		}
	}
}

// TestBucketHelpers pins the fixed layout's ends: the bottom bucket
// ends at 256ns and the finite buckets reach past an hour, so a 30s
// keepalive round trip or a multi-minute stream lag is never an
// overflow observation.
func TestBucketHelpers(t *testing.T) {
	if got := BucketBound(0); got != 255 {
		t.Errorf("BucketBound(0) = %d, want 255", got)
	}
	if last := BucketBound(numBuckets - 2); last < time.Hour {
		t.Errorf("last finite bound = %v, want at least 1h", last)
	}
	if got := BucketBound(numBuckets - 1); got != math.MaxInt64 {
		t.Errorf("overflow bound = %d, want MaxInt64", got)
	}
	for i := 1; i < numBuckets; i++ {
		if lo, prev := bucketLower(i), BucketBound(i-1); lo != prev+1 {
			t.Errorf("bucket %d starts at %d, want %d (previous bound + 1)", i, lo, prev+1)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("rtt_seconds", "round trips")
	h.Observe(BucketBound(3)) // exactly on a bound: counted in that bucket (le is inclusive)
	h.Observe(100 * time.Nanosecond)
	h.Observe(30 * time.Second)
	h.Observe(2 * time.Hour) // above the last finite bound: the overflow bucket
	snap := h.Snapshot()
	want := make([]uint64, numBuckets)
	want[0], want[3], want[bucketOf(int64(30*time.Second))], want[numBuckets-1] = 1, 1, 1, 1
	if !slices.Equal(snap.Counts, want) {
		t.Errorf("counts = %v, want %v", snap.Counts, want)
	}
	if snap.Count != 4 {
		t.Errorf("count = %d, want 4", snap.Count)
	}
	wantSum := (BucketBound(3) + 100*time.Nanosecond + 30*time.Second + 2*time.Hour).Seconds()
	if math.Abs(snap.Sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", snap.Sum, wantSum)
	}
	if snap.Max != 2*time.Hour {
		t.Errorf("max = %v, want 2h", snap.Max)
	}
}

// TestHistogramInfBoundDropped: the +Inf bucket is implicit, so every
// exposed bound is finite and the overflow count rides one slot past
// them.
func TestHistogramInfBoundDropped(t *testing.T) {
	snap := NewRegistry("t").Histogram("x_seconds", "").Snapshot()
	if got := len(snap.Bounds); got != numBuckets-1 {
		t.Errorf("bounds = %d, want %d (+Inf implicit)", got, numBuckets-1)
	}
	for _, b := range snap.Bounds {
		if math.IsInf(b, 0) {
			t.Fatalf("bounds %v carry an infinite bound", snap.Bounds)
		}
	}
	if len(snap.Counts) != len(snap.Bounds)+1 {
		t.Errorf("counts = %d, want bounds + 1", len(snap.Counts))
	}
}

func TestHistogramZeroValueAndExemplars(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
	h.ObserveSpan(100*time.Nanosecond, 7)
	h.ObserveSpan(100*time.Nanosecond, 8)
	h.ObserveSpan(100*time.Nanosecond, 0) // span 0 keeps the exemplar
	h.ObserveSpan(-time.Second, 9)        // negative counts as zero
	snap := h.Snapshot()
	if snap.Count != 4 || h.Count() != 4 || snap.Counts[0] != 4 {
		t.Fatalf("snapshot = %+v, want 4 observations in bucket 0", snap)
	}
	if snap.Exemplars[0] != 9 {
		t.Errorf("exemplar = %d, want 9 (last writer)", snap.Exemplars[0])
	}
	if snap.Max != 100*time.Nanosecond {
		t.Errorf("max = %v, want 100ns", snap.Max)
	}
}

// TestHistogramQuantile: estimates interpolate inside the landing
// bucket and never exceed the observed maximum.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for _, s := range []time.Duration{5, 15, 20, 25, 28} {
		h.Observe(s * time.Second)
	}
	snap := h.Snapshot()
	if p50 := snap.Quantile(0.50); p50 < 15*time.Second || p50 > 25*time.Second {
		t.Errorf("p50 = %v, want within [15s, 25s]", p50)
	}
	if p99 := snap.Quantile(0.99); p99 != 28*time.Second {
		t.Errorf("p99 = %v, want the 28s maximum", p99)
	}

	var one Histogram
	one.Observe(700 * time.Nanosecond)
	s := one.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := s.Quantile(q); got < bucketLower(bucketOf(700)) || got > 700 {
			t.Errorf("Quantile(%v) = %v outside [%v, 700ns]", q, got, bucketLower(bucketOf(700)))
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("x_seconds", "")
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.ObserveSpan(500*time.Millisecond, uint64(j+1))
			}
		}()
	}
	wg.Wait()
	snap := h.Snapshot()
	i := bucketOf(int64(500 * time.Millisecond))
	if snap.Count != goroutines*per || snap.Counts[i] != goroutines*per {
		t.Errorf("snapshot = %+v, want %d observations", snap, goroutines*per)
	}
}

// TestHistogramObserveAllocFree: the record path is atomics only.
func TestHistogramObserveAllocFree(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.ObserveSpan(time.Millisecond, 1) }); n != 0 {
		t.Errorf("ObserveSpan allocates %.1f per run, want 0", n)
	}
}
