package session

import (
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Metrics is the session layer's instrumentation: message counts in and
// out by wire type, handshake failures, and an approximate keepalive
// round trip. One Metrics is shared by every session of a speaker or
// collector (the label space is the message type, not the peer).
//
// A nil *Metrics disables instrumentation; all record methods are
// nil-receiver safe so the session hot paths stay branch-cheap.
type Metrics struct {
	// msgsIn/msgsOut cache the per-type counters by wire.MsgType so the
	// read and write loops never pay the labeled-lookup cost.
	msgsIn  [wire.MsgRouteRefresh + 1]*telemetry.Counter
	msgsOut [wire.MsgRouteRefresh + 1]*telemetry.Counter

	handshakeFailures *telemetry.Counter
	keepaliveRTT      *telemetry.Histogram
}

// NewMetrics registers the session metric families on r:
//
//	session_msgs_in_total{type}   counter
//	session_msgs_out_total{type}  counter
//	session_handshake_failures_total  counter
//	session_keepalive_rtt_seconds     histogram
func NewMetrics(r *telemetry.Registry) *Metrics {
	in := r.CounterVec("session_msgs_in_total", "BGP messages received, by type.", "type")
	out := r.CounterVec("session_msgs_out_total", "BGP messages sent, by type.", "type")
	m := &Metrics{
		handshakeFailures: r.Counter("session_handshake_failures_total",
			"OPEN handshakes that failed before reaching Established."),
		keepaliveRTT: r.Histogram("session_keepalive_rtt_seconds",
			"Approximate keepalive round trip: our KEEPALIVE send to the peer's next KEEPALIVE receipt."),
	}
	for t := wire.MsgOpen; t <= wire.MsgRouteRefresh; t++ {
		label := strings.ToLower(t.String())
		m.msgsIn[t] = in.With(label)
		m.msgsOut[t] = out.With(label)
	}
	return m
}

func (m *Metrics) recvMsg(t wire.MsgType) {
	if m == nil || int(t) >= len(m.msgsIn) || m.msgsIn[t] == nil {
		return
	}
	m.msgsIn[t].Inc()
}

func (m *Metrics) sentMsg(t wire.MsgType) {
	if m == nil || int(t) >= len(m.msgsOut) || m.msgsOut[t] == nil {
		return
	}
	m.msgsOut[t].Inc()
}

func (m *Metrics) handshakeFailed() {
	if m == nil {
		return
	}
	m.handshakeFailures.Inc()
}

func (m *Metrics) observeKeepaliveRTT(d time.Duration) {
	if m == nil || d < 0 {
		return
	}
	m.keepaliveRTT.Observe(d)
}
