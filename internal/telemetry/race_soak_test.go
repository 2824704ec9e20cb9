package telemetry

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// TestScrapeWhileInstrumenting hammers every instrument kind — including
// series creation, which mutates family maps — while concurrent scrapes
// run the encoder over the same registry: Gather racing hot-path
// updates and new-series registration. Run under -race; `make race`
// does. The HTTP side of scraping (a Close racing an in-flight scrape)
// is soaked with the operator surface in internal/obs.
func TestScrapeWhileInstrumenting(t *testing.T) {
	for i := 0; i < 50; i++ {
		r := NewRegistry("soak")
		c := r.Counter("ops_total", "")
		g := r.Gauge("level", "")
		h := r.Histogram("lat_seconds", "")
		vec := r.CounterVec("typed_total", "", "type")
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := 0; j < 200; j++ {
					c.Inc()
					g.Set(int64(j))
					h.Observe(time.Duration(j) * time.Millisecond)
					// New label values force series-map writes under the
					// family lock while Gather reads it.
					vec.With(fmt.Sprintf("t%d", j%8)).Inc()
				}
			}(w)
		}
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 5; j++ {
					if err := WritePrometheus(io.Discard, r); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		if got := c.Value(); got != 4*200 {
			t.Fatalf("counter = %d, want %d", got, 4*200)
		}
		if got := h.Count(); got != 4*200 {
			t.Fatalf("histogram count = %d, want %d", got, 4*200)
		}
	}
}
