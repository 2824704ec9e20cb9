package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// HistogramSummary is one registry histogram flattened for consumers:
// totals plus pre-computed quantile estimates.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// StatusDoc is the consolidated /debug/status document. Field order is
// the rendering order of the text view.
type StatusDoc struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Ready         *bool   `json:"ready,omitempty"`
	ReadyError    string  `json:"readyError,omitempty"`
	// Stages is the detection-latency breakdown, stage order.
	Stages []StageSnapshot `json:"stages,omitempty"`
	// LagMs is the RIS-Live stream-lag watermark (wall clock minus
	// message timestamp) when a lag gauge is registered.
	LagMs *int64 `json:"lagMs,omitempty"`
	// AlarmClasses sums every `*_alarm_class_total` family by class
	// label — the one view moas-top ranks.
	AlarmClasses map[string]float64 `json:"alarmClasses,omitempty"`
	Replay       *ProgressSnapshot  `json:"replay,omitempty"`
	Runtime      *RuntimeSample     `json:"runtime,omitempty"`
	// Counters and Gauges flatten the registry into the same series-key
	// space as the Prometheus text exposition (name{label="v"}).
	Counters   map[string]float64          `json:"counters,omitempty"`
	Gauges     map[string]float64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
}

// statusHandler serves the consolidated status document as JSON
// (?format=json or Accept: application/json) or a human-readable text
// summary (default). It reads the registry, stage recorder, replay
// progress and readiness of a SurfaceConfig; absent sources are simply
// omitted from the document.
type statusHandler struct {
	cfg     SurfaceConfig
	runtime *Sampler
	start   time.Time
}

func newStatusHandler(cfg SurfaceConfig, runtime *Sampler) *statusHandler {
	return &statusHandler{cfg: cfg, runtime: runtime, start: time.Now()}
}

// Doc builds the current status document.
func (h *statusHandler) Doc() StatusDoc {
	doc := StatusDoc{
		UptimeSeconds: time.Since(h.start).Seconds(),
		Stages:        h.cfg.Stages.Snapshot(),
	}
	if h.cfg.Ready != nil {
		ok := true
		if err := h.cfg.Ready.Check(); err != nil {
			ok = false
			doc.ReadyError = err.Error()
		}
		doc.Ready = &ok
	}
	if sm, has := h.runtime.Last(); has {
		doc.Runtime = &sm
	}
	if h.cfg.Replay != nil {
		snap := h.cfg.Replay.Snapshot()
		doc.Replay = &snap
	}
	if h.cfg.Registry != nil {
		h.flatten(&doc, h.cfg.Registry.Gather())
	}
	return doc
}

// flatten renders registry families into the doc's counter/gauge/
// histogram maps and derives the lag and alarm-class views.
func (h *statusHandler) flatten(doc *StatusDoc, fams []telemetry.FamilySnapshot) {
	for _, f := range fams {
		for _, s := range f.Series {
			key := seriesKey(f.Name, f.LabelKeys, s.LabelValues)
			switch f.Kind {
			case telemetry.KindCounter:
				if doc.Counters == nil {
					doc.Counters = make(map[string]float64)
				}
				doc.Counters[key] = s.Value
				if class, ok := alarmClassOf(f.Name, f.LabelKeys, s.LabelValues); ok {
					if doc.AlarmClasses == nil {
						doc.AlarmClasses = make(map[string]float64)
					}
					doc.AlarmClasses[class] += s.Value
				}
			case telemetry.KindGauge:
				if doc.Gauges == nil {
					doc.Gauges = make(map[string]float64)
				}
				doc.Gauges[key] = s.Value
				if strings.HasSuffix(f.Name, "_lag_ms") && len(s.LabelValues) == 0 {
					v := int64(s.Value)
					doc.LagMs = &v
				}
			case telemetry.KindHistogram:
				if s.Histogram == nil {
					continue
				}
				if doc.Histograms == nil {
					doc.Histograms = make(map[string]HistogramSummary)
				}
				doc.Histograms[key] = HistogramSummary{
					Count: s.Histogram.Count,
					Sum:   s.Histogram.Sum,
					P50:   s.Histogram.Quantile(0.50).Seconds(),
					P90:   s.Histogram.Quantile(0.90).Seconds(),
					P99:   s.Histogram.Quantile(0.99).Seconds(),
				}
			}
		}
	}
}

// alarmClassOf recognizes `*_alarm_class_total`-style counter series
// and extracts the class label value.
func alarmClassOf(name string, keys, values []string) (string, bool) {
	if !strings.HasSuffix(name, "_alarm_class_total") {
		return "", false
	}
	for i, k := range keys {
		if k == "class" && i < len(values) {
			return values[i], true
		}
	}
	return "", false
}

// seriesKey renders a series exactly as the Prometheus text exposition
// keys it: name, then {k="v",...} when labeled.
func seriesKey(name string, keys, values []string) string {
	if len(keys) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		fmt.Fprintf(&b, "%s=%q", k, v)
	}
	b.WriteByte('}')
	return b.String()
}

// ServeHTTP serves the document. JSON when ?format=json or the Accept
// header asks for application/json; text otherwise.
func (h *statusHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	doc := h.Doc()
	wantJSON := r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
	if wantJSON {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	writeStatusText(w, &doc)
}

// writeStatusText renders the operator-facing text view.
func writeStatusText(w http.ResponseWriter, doc *StatusDoc) {
	fmt.Fprintf(w, "uptime: %.1fs\n", doc.UptimeSeconds)
	if doc.Ready != nil {
		if *doc.Ready {
			fmt.Fprintf(w, "ready: true\n")
		} else {
			fmt.Fprintf(w, "ready: false (%s)\n", doc.ReadyError)
		}
	}
	if len(doc.Stages) > 0 {
		fmt.Fprintf(w, "\nstage latency (count p50 p90 p99 max):\n")
		for _, st := range doc.Stages {
			fmt.Fprintf(w, "  %-9s %8d  %10s %10s %10s %10s\n",
				st.Stage, st.Count,
				fmtNs(st.P50Ns), fmtNs(st.P90Ns), fmtNs(st.P99Ns), fmtNs(st.MaxNs))
		}
	}
	if doc.LagMs != nil {
		fmt.Fprintf(w, "\nstream lag: %dms\n", *doc.LagMs)
	}
	if doc.Replay != nil {
		fmt.Fprintf(w, "\nreplay: %d records, %d bytes (%.1f%%), done=%v\n",
			doc.Replay.Records, doc.Replay.Bytes, doc.Replay.Percent, doc.Replay.Done)
	}
	if len(doc.AlarmClasses) > 0 {
		fmt.Fprintf(w, "\nalarm classes:\n")
		classes := make([]string, 0, len(doc.AlarmClasses))
		for c := range doc.AlarmClasses {
			classes = append(classes, c)
		}
		sort.Slice(classes, func(i, j int) bool {
			if doc.AlarmClasses[classes[i]] != doc.AlarmClasses[classes[j]] {
				return doc.AlarmClasses[classes[i]] > doc.AlarmClasses[classes[j]]
			}
			return classes[i] < classes[j]
		})
		for _, c := range classes {
			fmt.Fprintf(w, "  %-24s %g\n", c, doc.AlarmClasses[c])
		}
	}
	if doc.Runtime != nil {
		fmt.Fprintf(w, "\nruntime: goroutines=%d heap=%dB gc=%d lastPause=%s\n",
			doc.Runtime.Goroutines, doc.Runtime.HeapAllocBytes,
			doc.Runtime.NumGC, fmtNs(int64(doc.Runtime.LastGCPauseNs)))
	}
	// Counters and gauges round out the text view, sorted for stability.
	writeKVBlock(w, "counters", doc.Counters)
	writeKVBlock(w, "gauges", doc.Gauges)
	if len(doc.Histograms) > 0 {
		fmt.Fprintf(w, "\nhistograms (count sum p50 p90 p99):\n")
		keys := sortedKeysH(doc.Histograms)
		for _, k := range keys {
			hs := doc.Histograms[k]
			fmt.Fprintf(w, "  %-48s %8d %12g %10g %10g %10g\n",
				k, hs.Count, hs.Sum, hs.P50, hs.P90, hs.P99)
		}
	}
}

func writeKVBlock(w http.ResponseWriter, title string, m map[string]float64) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s:\n", title)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-48s %g\n", k, m[k])
	}
}

func sortedKeysH(m map[string]HistogramSummary) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtNs renders a nanosecond reading with an adaptive unit.
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
