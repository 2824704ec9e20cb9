package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// median returns the middle of vs (mean of the two middles for an even
// count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics; 0 for an empty slice. vs is not modified.
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// fastest is the best of a few fixed-work passes (a cold table load, a
// full archive replay). Interference from the host only ever slows a
// pass down, so with a handful of passes the fastest is the one least
// disturbed, and it repeats far better than their median.
func fastest(rates []float64) float64 {
	best := 0.0
	for _, r := range rates {
		best = max(best, r)
	}
	return best
}

// nsQuantiles returns the p50 and p99 of a latency sample in
// microseconds.
func nsQuantiles(ns []int64) (p50, p99 float64) {
	fs := make([]float64, len(ns))
	for i, v := range ns {
		fs[i] = float64(v) / 1e3
	}
	sort.Float64s(fs)
	return quantileSorted(fs, 0.50), quantileSorted(fs, 0.99)
}

// rateMeter counts completions into fixed wall-clock buckets so a rate
// can be reported as the median bucket, which a single stall or warm-up
// burst cannot move the way a phase-wide mean would.
type rateMeter struct {
	mu       sync.Mutex
	start    time.Time
	interval time.Duration
	counts   []uint64
	total    uint64
	last     time.Time
}

func newRateMeter(start time.Time, interval time.Duration) *rateMeter {
	return &rateMeter{start: start, interval: interval, last: start}
}

func (m *rateMeter) add(now time.Time, n uint64) {
	m.mu.Lock()
	i := int(now.Sub(m.start) / m.interval)
	if i < 0 {
		i = 0
	}
	for len(m.counts) <= i {
		m.counts = append(m.counts, 0)
	}
	m.counts[i] += n
	m.total += n
	if now.After(m.last) {
		m.last = now
	}
	m.mu.Unlock()
}

// perSecond is the median of the full buckets, first one dropped as
// warm-up and the last as partial, scaled to one second. Where a bucket
// holds too few completions for its count to resolve a few percent
// (alarms at tens per second), the mean over the same buckets is used
// instead; with fewer than three full buckets (a phase that ran out of
// work early), total over elapsed.
func (m *rateMeter) perSecond() (rate float64, buckets int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.counts) >= 5 {
		full := m.counts[1 : len(m.counts)-1]
		fs := make([]float64, len(full))
		var sum float64
		for i, c := range full {
			fs[i] = float64(c)
			sum += fs[i]
		}
		if med := median(fs); med >= 500 {
			return med / m.interval.Seconds(), len(full)
		}
		return sum / (float64(len(full)) * m.interval.Seconds()), len(full)
	}
	el := m.last.Sub(m.start).Seconds()
	if el <= 0 {
		return 0, 0
	}
	return float64(m.total) / el, 0
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMiB forces one collection and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// procSample is a point reading of the allocator and collector, taken
// around a traced phase to price it per operation.
type procSample struct {
	mallocs, bytes uint64
	numGC          uint32
	pauseNs        [256]uint64
	gcCPU          float64 // collector CPU seconds so far
	cpu            float64 // process CPU seconds so far
	heapMiB        float64 // HeapAlloc, no collection forced
	goroutines     int
}

func takeProcSample() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC,
		pauseNs: ms.PauseNs, gcCPU: gcCPUSeconds(), cpu: cpuSeconds(),
		heapMiB: float64(ms.HeapAlloc) / (1 << 20), goroutines: runtime.NumGoroutine(),
	}
}

// gcCPUSeconds is the collector's estimated CPU time so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// maxPauseSince returns the longest GC pause between two samples, in
// microseconds (the MemStats ring holds the last 256).
func maxPauseSince(before, after procSample) float64 {
	var max uint64
	n := after.numGC - before.numGC
	if n > 256 {
		n = 256
	}
	for i := uint32(0); i < n; i++ {
		if p := after.pauseNs[(after.numGC-1-i)%256]; p > max {
			max = p
		}
	}
	return float64(max) / 1e3
}
