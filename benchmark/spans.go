package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// processEpoch anchors every timestamp the benchmark takes, so spans
// from different phases and harnesses share one clock.
var processEpoch = time.Now()

func sinceEpoch(t time.Time) int64 { return int64(t.Sub(processEpoch)) }

// spanSampleEvery is the live-message sampling rate of the traced run:
// one message in this many gets generator-side spans.
const spanSampleEvery = 64

// span is one timed interval as written to out/trace-<workload>.json.
// Times are nanoseconds since the process epoch; Parent is the ID of
// the span that caused it (0 for a root); Msg identifies the message or
// batch the span belongs to, shared by all spans of one request.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Msg    uint64 `json:"msg"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Count is the number of calls a shadow-pipeline span covers (the
	// layer functions cost tens of nanoseconds; one clock read per call
	// would measure the clock).
	Count int `json:"count,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	next  uint64
}

func (l *spanLog) add(parent, msg uint64, name string, start, end int64, count int) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	l.spans = append(l.spans, span{ID: l.next, Parent: parent, Msg: msg, Name: name, Start: start, End: end, Count: count})
	return l.next
}

// timed runs f as one span covering count calls and returns its
// duration per call in nanoseconds.
func (l *spanLog) timed(parent uint64, name string, count int, f func()) float64 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	l.add(parent, parent, name, sinceEpoch(t0), sinceEpoch(t1), count)
	if count < 1 {
		count = 1
	}
	return float64(t1.Sub(t0)) / float64(count)
}

// write saves the log as benchmark/out/trace-<workload>.json.
func (l *spanLog) write(workload string) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	path := filepath.Join("out", "trace-"+workload+".json")
	b, err := json.Marshal(l.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// msgSpans accumulates the generator-side view of one sampled live
// message: when it was due, encoded and written, and when each owed
// result came back. Fields are written under flights.mu.
type msgSpans struct {
	log                         *spanLog
	msg                         uint64
	due, registered             int64
	writeStart, writeEnd        int64
	validator, sink, alarm, end int64
}

func (l *spanLog) begin(msg uint64, due int64) *msgSpans {
	return &msgSpans{log: l, msg: msg, due: due, registered: sinceEpoch(time.Now())}
}

func (m *msgSpans) sighted(who int, ns int64) {
	if m.validator == 0 {
		m.validator = ns
	}
	if who == rcvSink {
		m.sink = ns
	}
}

func (m *msgSpans) alarmed(ns int64) {
	if m.validator == 0 {
		m.validator = ns
	}
	m.alarm = ns
}

// wrote and finish may come in either order (a result can race the
// sender back to the lock); whichever is second emits the spans.
func (m *msgSpans) wrote(start, end int64) {
	m.writeStart, m.writeEnd = start, end
	if m.end != 0 {
		m.emit()
	}
}

func (m *msgSpans) finish(ns int64) {
	m.end = ns
	if m.writeEnd != 0 {
		m.emit()
	}
}

func (m *msgSpans) emit() {
	root := m.log.add(0, m.msg, "msg", m.due, m.end, 0)
	m.log.add(root, m.msg, "gen.encode", m.registered, m.writeStart, 0)
	m.log.add(root, m.msg, "gen.write", m.writeStart, m.writeEnd, 0)
	if m.validator != 0 {
		m.log.add(root, m.msg, "wait.validator", m.writeEnd, m.validator, 0)
	}
	if m.sink != 0 {
		m.log.add(root, m.msg, "wait.sink", m.writeEnd, m.sink, 0)
	}
	if m.alarm != 0 {
		m.log.add(root, m.msg, "wait.alarm", m.writeEnd, m.alarm, 0)
	}
}
