package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
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

// StatusSchemaVersion is the StatusDoc layout version. It changes when
// a field is renamed, removed or changes meaning; adding a field does
// not change it.
const StatusSchemaVersion = 1

// StatusDoc is the consolidated /debug/status document, the one JSON
// view of a process's registry and pipeline state.
type StatusDoc struct {
	SchemaVersion int     `json:"schemaVersion"`
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

// statusHandler serves the consolidated status document as JSON. It
// reads the registry, stage recorder, replay progress and readiness of
// a SurfaceConfig, and the runtime vitals at the moment it is asked;
// absent sources are simply omitted from the document.
type statusHandler struct {
	cfg   SurfaceConfig
	start time.Time
}

func newStatusHandler(cfg SurfaceConfig) *statusHandler {
	return &statusHandler{cfg: cfg, start: time.Now()}
}

// Doc builds the current status document.
func (h *statusHandler) Doc() StatusDoc {
	rt := readRuntime()
	doc := StatusDoc{
		SchemaVersion: StatusSchemaVersion,
		UptimeSeconds: time.Since(h.start).Seconds(),
		Stages:        h.cfg.Stages.Snapshot(),
		Runtime:       &rt,
	}
	if h.cfg.Ready != nil {
		ok := true
		if err := h.cfg.Ready.Check(); err != nil {
			ok = false
			doc.ReadyError = err.Error()
		}
		doc.Ready = &ok
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

// ServeHTTP serves the document as indented JSON. A ?format=json query
// or an Accept header is accepted and changes nothing: there is one
// encoding, and moas-top is its text view.
func (h *statusHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h.Doc())
}
