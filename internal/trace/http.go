// Admin-endpoint handlers for the flight recorder. The operator
// surface (obs.Serve) mounts Routes whenever a process has a recorder,
// so every binary that serves /metrics can also serve its trace ring
// and alarm forensics.
package trace

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Routes returns the debug handlers for a recorder, keyed by URL
// pattern in the form http.ServeMux expects:
//
//	/debug/trace      recent ring events as a JSON array, one event per
//	                  line, oldest first; ?n= keeps only the newest n
//	/debug/alarms     all retained forensic bundles as a JSON array;
//	                  ?span= keeps only bundles for that message span
//	                  (how /debug/status exemplars resolve to bundles)
//	/debug/alarms/    a single bundle by ID (/debug/alarms/3)
//
// A nil recorder yields handlers that answer 503, so wiring is
// unconditional at call sites.
func Routes(r *Recorder) map[string]http.Handler {
	return map[string]http.Handler{
		"/debug/trace":   traceHandler{r},
		"/debug/alarms":  alarmListHandler{r},
		"/debug/alarms/": alarmHandler{r},
	}
}

func recorderUnavailable(w http.ResponseWriter, r *Recorder) bool {
	if r == nil {
		http.Error(w, "tracing not enabled", http.StatusServiceUnavailable)
		return true
	}
	return false
}

type traceHandler struct{ rec *Recorder }

func (h traceHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if recorderUnavailable(w, h.rec) {
		return
	}
	events := h.rec.Events()
	if s := req.URL.Query().Get("n"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "invalid n", http.StatusBadRequest)
			return
		}
		if n < len(events) {
			events = events[len(events)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	WriteEvents(w, events)
}

// WriteEvents writes events as the JSON array /debug/trace serves: one
// AppendEventJSON object per line, in the order given.
func WriteEvents(w io.Writer, events []Event) error {
	buf := []byte{'['}
	for i := range events {
		if i > 0 {
			buf = append(buf, ',', '\n')
		}
		buf = AppendEventJSON(buf, &events[i])
	}
	_, err := w.Write(append(buf, ']', '\n'))
	return err
}

// WriteAlarms writes bundles as the indented JSON array /debug/alarms
// serves; no bundles is the empty array.
func WriteAlarms(w io.Writer, bundles []AlarmBundle) error {
	if bundles == nil {
		bundles = []AlarmBundle{}
	}
	return writeIndented(w, bundles)
}

func writeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

type alarmListHandler struct{ rec *Recorder }

func (h alarmListHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if recorderUnavailable(w, h.rec) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	bundles := h.rec.Alarms()
	if s := req.URL.Query().Get("span"); s != "" {
		span, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "invalid span", http.StatusBadRequest)
			return
		}
		kept := bundles[:0]
		for _, b := range bundles {
			if b.Span == span {
				kept = append(kept, b)
			}
		}
		bundles = kept
	}
	WriteAlarms(w, bundles)
}

type alarmHandler struct{ rec *Recorder }

func (h alarmHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if recorderUnavailable(w, h.rec) {
		return
	}
	idStr := strings.TrimPrefix(req.URL.Path, "/debug/alarms/")
	id, err := strconv.Atoi(idStr)
	if err != nil || id < 0 {
		http.Error(w, "invalid alarm id", http.StatusBadRequest)
		return
	}
	b, ok := h.rec.Alarm(id)
	if !ok {
		http.Error(w, "no such alarm (evicted or never raised)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeIndented(w, b)
}
