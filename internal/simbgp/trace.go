package simbgp

import (
	"repro/internal/astypes"
	"repro/internal/trace"
)

// AttachRecorder mirrors simulation events onto a flight recorder in
// the live path's event vocabulary (replacing any previous recorder):
// announcements and withdrawals become recv events, best-route changes
// become rib events, rejections become validate events, and alarms
// arrive as forensic bundles via raiseAndResolve. Event VNanos carry
// virtual simulation time. Pass nil to disable.
func (n *Network) AttachRecorder(rec *trace.Recorder) { n.recorder = rec }

// tracing reports whether a recorder is attached; propagation paths
// consult it before assembling event arguments.
func (n *Network) tracing() bool { return n.recorder != nil }

// record mirrors one simulation event onto the recorder at the current
// virtual time. origin is the route's origin AS (ASNNone when there is
// no route).
func (n *Network) record(kind trace.Kind, detail trace.Detail, node, peer astypes.ASN, prefix astypes.Prefix, origin astypes.ASN) {
	n.recorder.Record(trace.Event{
		VNanos: int64(n.engine.Now()),
		Kind:   kind,
		Detail: detail,
		Node:   node,
		Peer:   peer,
		Prefix: prefix,
		Origin: origin,
	})
}
