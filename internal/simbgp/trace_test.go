package simbgp

import (
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/trace"
)

func TestTracerRecordsConvergence(t *testing.T) {
	n := newNet(t, lineTopology(1, 2, 3), core.NewList(1))
	rec := trace.NewRecorder(1024, trace.WithoutWallClock())
	n.AttachRecorder(rec)
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]int{}
	events := rec.Events()
	for i, e := range events {
		kinds[e.Kind]++
		if i > 0 && e.VNanos < events[i-1].VNanos {
			t.Fatalf("event %d out of virtual-time order: %d after %d", i, e.VNanos, events[i-1].VNanos)
		}
	}
	if kinds[trace.KindRecv] == 0 || kinds[trace.KindRIB] == 0 {
		t.Fatalf("missing events: %d recvs, %d rib changes", kinds[trace.KindRecv], kinds[trace.KindRIB])
	}
}

func TestTracerAlarmAndRejectEvents(t *testing.T) {
	n := newNet(t, lineTopology(1, 2, 9), core.NewList(1))
	detectAll(t, n, 9)
	rec := trace.NewRecorder(1024, trace.WithoutWallClock())
	n.AttachRecorder(rec)
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.OriginateInvalid(9, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	alarms, rejects := 0, 0
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindAlarm:
			alarms++
		case trace.KindValidate:
			if e.Detail != trace.DetailRejected {
				t.Errorf("validate event with detail %v, want rejected", e.Detail)
			}
			rejects++
		}
	}
	if alarms == 0 {
		t.Error("no alarm events recorded")
	}
	if rejects == 0 {
		t.Error("no rejection events recorded")
	}
}

func TestRecorderMirrorsSimulation(t *testing.T) {
	n := newNet(t, lineTopology(1, 2, 9), core.NewList(1))
	detectAll(t, n, 9)
	rec := trace.NewRecorder(1024, trace.WithoutWallClock())
	n.AttachRecorder(rec)
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.OriginateInvalid(9, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}

	kinds := map[trace.Kind]int{}
	events := rec.Events()
	for i, e := range events {
		kinds[e.Kind]++
		if e.Nanos != 0 {
			t.Fatal("virtual-clock recorder must not stamp wall time")
		}
		if i > 0 && e.VNanos < events[i-1].VNanos {
			t.Fatalf("event %d out of virtual-time order: %d after %d", i, e.VNanos, events[i-1].VNanos)
		}
		if e.Kind == trace.KindValidate && e.Detail != trace.DetailRejected {
			t.Errorf("validate event with detail %v, want rejected", e.Detail)
		}
	}
	if kinds[trace.KindRecv] == 0 || kinds[trace.KindRIB] == 0 {
		t.Errorf("missing mirrored events: %v", kinds)
	}
	if kinds[trace.KindValidate] == 0 {
		t.Errorf("detector rejection not mirrored: %v", kinds)
	}
	// The alarm event arrives exactly once per bundle (not double-fed
	// through the generic event hook).
	if kinds[trace.KindAlarm] != rec.AlarmCount() {
		t.Errorf("%d alarm events vs %d bundles", kinds[trace.KindAlarm], rec.AlarmCount())
	}
	if rec.AlarmCount() == 0 {
		t.Fatal("no forensic bundles captured")
	}
	// Link delays decide which origin's route reaches the detector
	// second (and so triggers the conflict); assert the bundle is
	// self-consistent rather than pinning the race.
	b, _ := rec.Alarm(0)
	if b.Node != 2 || b.Verdict != "conflict" {
		t.Errorf("bundle: %+v", b)
	}
	if got := b.Origins; len(got) != 2 || got[0] != 1 || got[1] != 9 {
		t.Errorf("competing origins: %v", got)
	}
	if len(b.Path) == 0 || b.Path[len(b.Path)-1] != b.Origin {
		t.Errorf("offending path %v must end at origin %d", b.Path, b.Origin)
	}

	// Reset must detach the recorder.
	if err := n.Reset(Config{Topology: n.topo}); err != nil {
		t.Fatal(err)
	}
	if n.recorder != nil {
		t.Error("Reset left the recorder attached")
	}
}

// TestTracerRIBEventsFollowBestRoute: a node's rib events say what the
// speaker's say. The first route a node selects is installed, a switch
// to another route is replaced, losing the last route is withdrawn, and
// each event names the new best route's neighbor (ASNNone when the node
// originates it) and origin. The line 1-2-3-4 first learns AS 1's
// route; AS 4 then originates the prefix too, so 4 switches to its own
// route and 3 to 4's shorter one; both origins then withdraw.
func TestTracerRIBEventsFollowBestRoute(t *testing.T) {
	n := newNet(t, lineTopology(1, 2, 3, 4), core.NewList(1))
	rec := trace.NewRecorder(1024, trace.WithoutWallClock())
	n.AttachRecorder(rec)
	phases := []func() error{
		func() error { return n.Originate(1, victim, core.List{}) },
		func() error { return n.OriginateInvalid(4, victim, core.List{}) },
		func() error { return n.Withdraw(4, victim) },
		func() error { return n.Withdraw(1, victim) },
	}
	has := map[astypes.ASN]bool{}
	last := map[astypes.ASN]trace.Event{}
	details := map[trace.Detail]int{}
	seen := 0
	for phase, start := range phases {
		if err := start(); err != nil {
			t.Fatal(err)
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
		events := rec.Events()
		for _, e := range events[seen:] {
			if e.Kind != trace.KindRIB {
				continue
			}
			want := trace.DetailReplaced
			switch {
			case e.Origin == astypes.ASNNone:
				want = trace.DetailWithdrawn
			case !has[e.Node]:
				want = trace.DetailInstalled
			}
			if e.Detail != want {
				t.Errorf("phase %d: AS %v rib event %v, want %v", phase, e.Node, e.Detail, want)
			}
			has[e.Node] = e.Origin != astypes.ASNNone
			last[e.Node] = e
			details[e.Detail]++
		}
		seen = len(events)
		for _, asn := range n.Nodes() {
			best, e := n.Node(asn).Best(victim), last[asn]
			if best == nil {
				if has[asn] {
					t.Errorf("phase %d: AS %v has no route, its last rib event is %+v", phase, asn, e)
				}
				continue
			}
			if !has[asn] || e.Peer != best.FromPeer || e.Origin != best.OriginAS() {
				t.Errorf("phase %d: AS %v best from %v origin %v, its last rib event %+v", phase, asn, best.FromPeer, best.OriginAS(), e)
			}
		}
	}
	for _, d := range []trace.Detail{trace.DetailInstalled, trace.DetailReplaced, trace.DetailWithdrawn} {
		if details[d] == 0 {
			t.Errorf("no %v rib event: %v", d, details)
		}
	}
}
