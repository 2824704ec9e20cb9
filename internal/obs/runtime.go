package obs

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// RuntimeSample is one reading of the process's runtime vitals.
type RuntimeSample struct {
	UnixNanos      int64  `json:"unixNanos"`
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heapAllocBytes"`
	HeapSysBytes   uint64 `json:"heapSysBytes"`
	NumGC          uint32 `json:"numGC"`
	LastGCPauseNs  uint64 `json:"lastGCPauseNs"`
	TotalGCPauseNs uint64 `json:"totalGCPauseNs"`
}

// Sampler periodically reads runtime vitals (heap, GC pause, goroutine
// count) into a fixed ring, served as JSON at /debug/runtime. Memory is
// bounded by construction: the ring never grows.
type Sampler struct {
	interval time.Duration

	mu   sync.Mutex
	ring []RuntimeSample
	next int // ring insertion cursor
	n    int // samples held (≤ len(ring))

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// The sampler holds the most recent samplerRing samples, one taken
// every samplerInterval: about four minutes of history.
const (
	samplerRing     = 256
	samplerInterval = time.Second
)

// NewSampler returns an unstarted sampler.
func NewSampler() *Sampler {
	return &Sampler{
		interval: samplerInterval,
		ring:     make([]RuntimeSample, samplerRing),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the sampling loop (idempotent). One sample is taken
// synchronously so Last is immediately meaningful.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		s.record(takeSample())
		go s.loop()
	})
}

// Close stops the sampling loop and waits for it to exit. Safe to call
// without Start and more than once.
func (s *Sampler) Close() {
	started := true
	s.startOnce.Do(func() { started = false })
	s.stopOnce.Do(func() { close(s.stop) })
	if started {
		<-s.done
	}
}

func (s *Sampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.record(takeSample())
		}
	}
}

func takeSample() RuntimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeSample{
		UnixNanos:      time.Now().UnixNano(),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		NumGC:          ms.NumGC,
		LastGCPauseNs:  ms.PauseNs[(ms.NumGC+255)%256],
		TotalGCPauseNs: ms.PauseTotalNs,
	}
}

func (s *Sampler) record(sm RuntimeSample) {
	s.mu.Lock()
	s.ring[s.next] = sm
	s.next = (s.next + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	s.mu.Unlock()
}

// Samples returns the held samples, oldest first.
func (s *Sampler) Samples() []RuntimeSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RuntimeSample, 0, s.n)
	start := s.next - s.n
	if start < 0 {
		start += len(s.ring)
	}
	for i := 0; i < s.n; i++ {
		out = append(out, s.ring[(start+i)%len(s.ring)])
	}
	return out
}

// Last returns the most recent sample and whether one exists.
func (s *Sampler) Last() (RuntimeSample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return RuntimeSample{}, false
	}
	i := s.next - 1
	if i < 0 {
		i += len(s.ring)
	}
	return s.ring[i], true
}

// ServeHTTP serves the ring as a JSON array, oldest sample first.
func (s *Sampler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Samples())
}
