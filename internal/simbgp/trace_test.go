package simbgp

import (
	"testing"

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
