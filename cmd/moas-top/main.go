// Command moas-top is a terminal viewer for the detection-latency
// observatory: it polls a daemon or collector's /debug/status endpoint
// and renders message-rate deltas, per-stage latency quantiles, the
// RIS-Live stream-lag watermark, and the top alarm classes — a `top`
// for the paper's detection pipeline. /debug/status serves only JSON;
// this is its one text view.
//
// Usage:
//
//	moas-top -addr 127.0.0.1:9999           # refresh every 2s
//	moas-top -addr 127.0.0.1:9999 -n 1      # one frame and exit
//	moas-top -addr 127.0.0.1:9999 -n 5      # five frames and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9999", "admin endpoint host:port serving /debug/status")
		interval = flag.Duration("interval", 2*time.Second, "refresh interval")
		frames   = flag.Int("n", 0, "exit after this many frames (0 = run until interrupted)")
		clear    = flag.Bool("clear", true, "clear the terminal between frames")
	)
	flag.Parse()
	cfg := topConfig{
		addr:     *addr,
		interval: *interval,
		frames:   *frames,
		clear:    *clear,
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "moas-top:", err)
		os.Exit(1)
	}
}

type topConfig struct {
	addr     string
	interval time.Duration
	frames   int
	clear    bool
}

// run polls /debug/status and renders frames to w until the frame
// budget is spent. It is the testable core: main only parses flags.
func run(cfg topConfig, w io.Writer) error {
	if cfg.interval <= 0 {
		cfg.interval = 2 * time.Second
	}
	timeout := cfg.interval
	if timeout < 2*time.Second {
		timeout = 2 * time.Second
	}
	client := &http.Client{Timeout: timeout}
	url := "http://" + cfg.addr + "/debug/status"
	var prev *frame
	for n := 0; cfg.frames == 0 || n < cfg.frames; n++ {
		if n > 0 {
			time.Sleep(cfg.interval)
		}
		doc, err := fetchStatus(client, url)
		if err != nil {
			if n == 0 {
				return err
			}
			fmt.Fprintf(w, "moas-top: %v (retrying)\n", err)
			continue
		}
		cur := &frame{doc: doc, at: time.Now()}
		if cfg.clear {
			fmt.Fprint(w, "\x1b[2J\x1b[H")
		}
		render(w, cfg.addr, cur, prev)
		prev = cur
	}
	return nil
}

// frame is one scrape with its arrival time, kept for rate deltas.
type frame struct {
	doc *obs.StatusDoc
	at  time.Time
}

func fetchStatus(client *http.Client, url string) (*obs.StatusDoc, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var doc obs.StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return &doc, nil
}

// render draws one frame: header, rates, stage table, lag, replay,
// alarm classes, runtime vitals.
func render(w io.Writer, addr string, cur, prev *frame) {
	doc := cur.doc
	ready := "-"
	if doc.Ready != nil {
		if *doc.Ready {
			ready = "ready"
		} else {
			ready = "NOT READY: " + doc.ReadyError
		}
	}
	fmt.Fprintf(w, "moas-top  %s  up %s  %s\n",
		addr, fmtDur(time.Duration(doc.UptimeSeconds*float64(time.Second))), ready)

	// Rates: per-second deltas of the busiest counters since the last
	// frame; absolute totals on the first one.
	rates := counterRates(cur, prev)
	if len(rates) > 0 {
		fmt.Fprintf(w, "\nrates (/s):\n")
		for _, r := range rates {
			fmt.Fprintf(w, "  %-48s %10.1f\n", r.name, r.perSec)
		}
	}

	if len(doc.Stages) > 0 {
		fmt.Fprintf(w, "\nstage        count        p50        p90        p99        max\n")
		for _, st := range doc.Stages {
			fmt.Fprintf(w, "%-9s %8d %10s %10s %10s %10s\n", st.Stage, st.Count,
				fmtNs(st.P50Ns), fmtNs(st.P90Ns), fmtNs(st.P99Ns), fmtNs(st.MaxNs))
		}
	}

	if doc.LagMs != nil {
		fmt.Fprintf(w, "\nstream lag: %dms\n", *doc.LagMs)
	}
	if doc.Replay != nil {
		fmt.Fprintf(w, "replay: %d records, %d bytes (%.1f%%) done=%v\n",
			doc.Replay.Records, doc.Replay.Bytes, doc.Replay.Percent, doc.Replay.Done)
	}

	if len(doc.AlarmClasses) > 0 {
		fmt.Fprintf(w, "\nalarm classes:\n")
		for _, c := range topClasses(doc.AlarmClasses, 5) {
			fmt.Fprintf(w, "  %-24s %g\n", c, doc.AlarmClasses[c])
		}
	}

	if doc.Runtime != nil {
		fmt.Fprintf(w, "\ngoroutines=%d heap=%s gc=%d lastPause=%s\n",
			doc.Runtime.Goroutines, fmtBytes(doc.Runtime.HeapAllocBytes),
			doc.Runtime.NumGC, fmtNs(int64(doc.Runtime.LastGCPauseNs)))
	}
}

type rate struct {
	name   string
	perSec float64
}

// counterRates ranks counters by their per-second delta between two
// frames (totals on the first frame), keeping the top eight so the
// frame stays one screen tall. A target whose uptime went backwards
// restarted and reset its counters, so its frame counts as a first
// one.
func counterRates(cur, prev *frame) []rate {
	var out []rate
	if prev == nil || cur.doc.UptimeSeconds < prev.doc.UptimeSeconds {
		for name, v := range cur.doc.Counters {
			out = append(out, rate{name, v})
		}
	} else {
		dt := cur.at.Sub(prev.at).Seconds()
		if dt <= 0 {
			return nil
		}
		for name, v := range cur.doc.Counters {
			out = append(out, rate{name, (v - prev.doc.Counters[name]) / dt})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].perSec != out[j].perSec {
			return out[i].perSec > out[j].perSec
		}
		return out[i].name < out[j].name
	})
	if len(out) > 8 {
		out = out[:8]
	}
	return out
}

// topClasses returns the n highest-count alarm classes, ties broken by
// name.
func topClasses(m map[string]float64, n int) []string {
	classes := make([]string, 0, len(m))
	for c := range m {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool {
		if m[classes[i]] != m[classes[j]] {
			return m[classes[i]] > m[classes[j]]
		}
		return classes[i] < classes[j]
	})
	if len(classes) > n {
		classes = classes[:n]
	}
	return classes
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	case d >= time.Minute:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func fmtNs(ns int64) string {
	switch {
	case ns >= int64(time.Second):
		return fmt.Sprintf("%.2fs", float64(ns)/float64(time.Second))
	case ns >= int64(time.Millisecond):
		return fmt.Sprintf("%.2fms", float64(ns)/float64(time.Millisecond))
	case ns >= int64(time.Microsecond):
		return fmt.Sprintf("%.1fµs", float64(ns)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
