package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// These soaks extend the shutdown_race_test.go pattern from
// speaker/collector/daemon to the admin endpoint: the interesting
// windows are scrape-while-instrumenting (Gather racing hot-path
// updates and new-series registration) and Close racing an in-flight
// scrape. Run under -race; `make race` does.

func scrapeQuietly(url string) {
	resp, err := http.Get(url)
	if err != nil {
		return // Close may have won the race; that is the point.
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestScrapeWhileInstrumenting hammers every instrument kind — including
// series creation, which mutates family maps — while concurrent scrapes
// run both encoders over the same registry.
func TestScrapeWhileInstrumenting(t *testing.T) {
	for i := 0; i < 50; i++ {
		r := NewRegistry("soak")
		c := r.Counter("ops_total", "")
		g := r.Gauge("level", "")
		h := r.Histogram("lat_seconds", "", []float64{0.001, 0.1})
		vec := r.CounterVec("typed_total", "", "type")
		// The HTTP client can leave a dialed connection unused, which
		// stalls the graceful drain until Close cuts it; a short budget
		// keeps those iterations cheap.
		a, err := ServeAdmin("127.0.0.1:0", AdminConfig{Registry: r, shutdownTimeout: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := 0; j < 200; j++ {
					c.Inc()
					g.Set(int64(j))
					h.Observe(float64(j) / 1000)
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
					scrapeQuietly("http://" + a.Addr() + "/metrics")
					scrapeQuietly("http://" + a.Addr() + "/metrics?format=json")
				}
			}()
		}
		wg.Wait()
		if err := a.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if got := c.Value(); got != 4*200 {
			t.Fatalf("counter = %d, want %d", got, 4*200)
		}
	}
}

// TestCloseWhileScraping races Close against in-flight scrapes, the
// daemon-shutdown-during-scrape window.
func TestCloseWhileScraping(t *testing.T) {
	for i := 0; i < 50; i++ {
		r := NewRegistry("soak")
		r.Counter("ops_total", "").Inc()
		a, err := ServeAdmin("127.0.0.1:0", AdminConfig{Registry: r})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			scrapeQuietly("http://" + a.Addr() + "/metrics")
		}()
		go func() {
			defer wg.Done()
			a.Close()
		}()
		wg.Wait()
		// Close again after the race settles: must stay idempotent.
		if err := a.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
	}
}
