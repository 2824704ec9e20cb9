package speaker

import (
	"repro/internal/session"
	"repro/internal/telemetry"
)

// metrics is the speaker's instrumentation, registered on the speaker's
// telemetry registry. The former private MIB counter struct now lives
// here: the §4.2 MIB snapshot and the /metrics exposition read the same
// instruments, so the two management views cannot disagree.
type metrics struct {
	updatesIn      *telemetry.Counter
	updatesOut     *telemetry.Counter
	withdrawalsIn  *telemetry.Counter
	routesAccepted *telemetry.Counter
	routesRejected *telemetry.Counter
	loopsDropped   *telemetry.Counter
	alarms         *telemetry.Counter
	alarmClasses   *telemetry.CounterVec
	suppressed     *telemetry.Counter
	teardowns      *telemetry.Counter
	peers          *telemetry.Gauge

	// session is shared by every peer session of this speaker.
	session *session.Metrics
}

func newMetrics(r *telemetry.Registry) *metrics {
	return &metrics{
		updatesIn: r.Counter("speaker_updates_in_total",
			"UPDATE messages received from peers."),
		updatesOut: r.Counter("speaker_updates_out_total",
			"UPDATE messages enqueued to peers (announcements and withdrawals)."),
		withdrawalsIn: r.Counter("speaker_withdrawals_in_total",
			"Withdrawn prefixes received."),
		routesAccepted: r.Counter("speaker_routes_accepted_total",
			"Announced prefixes that passed import policy and MOAS validation."),
		routesRejected: r.Counter("speaker_routes_rejected_total",
			"Announced prefixes rejected by import policy or MOAS validation."),
		loopsDropped: r.Counter("speaker_loops_dropped_total",
			"Announced prefixes dropped by AS-path loop detection."),
		alarms: r.Counter("speaker_moas_alarms_total",
			"MOAS-list conflicts detected (the paper's alarms)."),
		alarmClasses: r.CounterVec("speaker_moas_alarm_class_total",
			"MOAS alarms by RPKI/ROV cross-validated class.", "class"),
		suppressed: r.Counter("speaker_routes_suppressed_total",
			"Best-route changes not propagated because a summary-only aggregate suppresses the prefix."),
		teardowns: r.Counter("speaker_peer_teardowns_total",
			"Peer sessions closed because their send queue overflowed."),
		peers: r.Gauge("speaker_peers",
			"Established peer sessions."),
		session: session.NewMetrics(r),
	}
}

// snapshot assembles the cumulative MIB counter view from the registry
// instruments. Reads are individually atomic; the struct is not a
// cross-counter consistent cut (neither were the old atomics).
func (m *metrics) snapshot() Counters {
	return Counters{
		UpdatesIn:      m.updatesIn.Value(),
		UpdatesOut:     m.updatesOut.Value(),
		WithdrawalsIn:  m.withdrawalsIn.Value(),
		RoutesAccepted: m.routesAccepted.Value(),
		RoutesRejected: m.routesRejected.Value(),
		LoopsDropped:   m.loopsDropped.Value(),
		Alarms:         m.alarms.Value(),
	}
}
