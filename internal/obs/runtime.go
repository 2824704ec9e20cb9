package obs

import (
	"runtime"
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

// readRuntime takes one sample. runtime.ReadMemStats stops the world
// briefly, so it is read only while a /debug/status request is served,
// never on a timer.
func readRuntime() RuntimeSample {
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
