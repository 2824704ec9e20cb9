package e2etest

import (
	"net"
	"reflect"
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/rpki"
	"repro/internal/simbgp"
	"repro/internal/speaker"
	"repro/internal/topology"
	"repro/internal/trace"
)

// announcement is one origination in a detector-agreement scenario.
type announcement struct {
	origin astypes.ASN
	list   core.List // empty: no list attached, the implicit rule applies
}

// TestDetectorsAgreeOnAlarm runs the same two originations through the
// paper's three deployments — the in-band speaker, the off-line monitor
// and the simulator — and asserts each raises exactly one alarm whose
// forensic bundle agrees with the others on verdict, ROV class, origin
// and both MOAS lists. An alarm's class is the operator's false-alarm
// signal, so it must not depend on where the check ran.
func TestDetectorsAgreeOnAlarm(t *testing.T) {
	const (
		legitAS  = 4
		forgedAS = 5
		detector = 100
	)
	covered := astypes.MustPrefix(0x83b30000, 16)  // ROA for AS 4
	uncovered := astypes.MustPrefix(0x0a000000, 8) // no ROA: NotFound
	legit := announcement{origin: legitAS, list: core.NewList(legitAS)}
	bare := announcement{origin: forgedAS}                                // implicit {5}
	copied := announcement{origin: forgedAS, list: core.NewList(legitAS)} // {4}, origin 5 not listed

	tests := []struct {
		name   string
		prefix astypes.Prefix
		order  []announcement
		want   trace.AlarmBundle
		// simNoExisting marks the origin-not-listed case after an
		// accepted route: the simulator checks the route's own list
		// before any held list, so its bundle carries no Existing list,
		// while the checker reports the list it saw first.
		simNoExisting bool
	}{
		{
			name:   "conflict/roa-invalid",
			prefix: covered,
			order:  []announcement{legit, bare},
			want: trace.AlarmBundle{Verdict: "conflict", Class: "likely-hijack", Origin: forgedAS,
				Existing: []uint32{legitAS}, Received: []uint32{forgedAS}},
		},
		{
			name:   "conflict/roa-notfound",
			prefix: uncovered,
			order:  []announcement{legit, bare},
			want: trace.AlarmBundle{Verdict: "conflict", Class: "benign-moas", Origin: forgedAS,
				Existing: []uint32{legitAS}, Received: []uint32{forgedAS}},
		},
		{
			name:   "origin-not-listed/roa-invalid",
			prefix: covered,
			order:  []announcement{copied, legit},
			want: trace.AlarmBundle{Verdict: "origin-not-listed", Class: "likely-hijack", Origin: forgedAS,
				Received: []uint32{legitAS}},
		},
		{
			name:   "origin-not-listed/roa-notfound",
			prefix: uncovered,
			order:  []announcement{copied, legit},
			want: trace.AlarmBundle{Verdict: "origin-not-listed", Class: "likely-misconfig", Origin: forgedAS,
				Received: []uint32{legitAS}},
		},
		{
			name:   "origin-not-listed/after-legit",
			prefix: covered,
			order:  []announcement{legit, copied},
			want: trace.AlarmBundle{Verdict: "origin-not-listed", Class: "likely-hijack", Origin: forgedAS,
				Existing: []uint32{legitAS}, Received: []uint32{legitAS}},
			simNoExisting: true,
		},
	}
	roas := rpki.NewStore()
	roas.Add(rpki.ROA{Prefix: covered, Origin: legitAS})

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bundles := map[string]trace.AlarmBundle{
				"speaker": speakerBundle(t, detector, tt.prefix, tt.order, roas),
				"monitor": monitorBundle(t, tt.prefix, tt.order, roas),
				"simbgp":  simBundle(t, detector, tt.prefix, tt.order, roas),
			}
			for name, got := range bundles {
				want := tt.want
				if name == "simbgp" && tt.simNoExisting {
					want.Existing = nil
				}
				if got.Verdict != want.Verdict || got.Class != want.Class || got.Origin != want.Origin ||
					!reflect.DeepEqual(got.Existing, want.Existing) || !reflect.DeepEqual(got.Received, want.Received) {
					t.Errorf("%s bundle: verdict=%q class=%q origin=%d existing=%v received=%v; want verdict=%q class=%q origin=%d existing=%v received=%v",
						name, got.Verdict, got.Class, got.Origin, got.Existing, got.Received,
						want.Verdict, want.Class, want.Origin, want.Existing, want.Received)
				}
				// Every detector numbers the messages it checks from 1, so
				// a zero span means the bundle lost its provenance.
				if got.Span == 0 {
					t.Errorf("%s bundle carries no span: the alarm cannot point back at its message", name)
				}
			}
		})
	}
}

// onlyBundle returns the single bundle rec captured, failing otherwise.
func onlyBundle(t *testing.T, who string, rec *trace.Recorder) trace.AlarmBundle {
	t.Helper()
	bundles := rec.Alarms()
	if len(bundles) != 1 {
		t.Fatalf("%s captured %d bundles, want exactly 1: %+v", who, len(bundles), bundles)
	}
	return bundles[0]
}

// speakerBundle peers each origin with an alarm-mode speaker over
// loopback TCP, one at a time and in order.
func speakerBundle(t *testing.T, detector astypes.ASN, prefix astypes.Prefix, order []announcement, roas *rpki.Store) trace.AlarmBundle {
	t.Helper()
	rec := trace.NewRecorder(256)
	d, err := speaker.New(speaker.Config{
		AS: detector, RouterID: uint32(detector),
		Validation: speaker.ValidationAlarm, Trace: rec, RPKI: roas,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.Listen(ln)
	for _, a := range order {
		s, err := speaker.New(speaker.Config{AS: a.origin, RouterID: uint32(a.origin)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		s.Originate(prefix, a.list)
		if err := s.Connect(ln.Addr().String(), detector); err != nil {
			t.Fatal(err)
		}
		// Alarm mode accepts every route, so the detector holding it
		// means the check has run.
		WaitFor(t, func() bool { return d.Table().RouteFrom(a.origin, prefix) != nil }, "route from AS "+a.origin.String())
	}
	return onlyBundle(t, "speaker", rec)
}

// monitorBundle feeds the originations to an off-line monitor as table
// entries from one vantage.
func monitorBundle(t *testing.T, prefix astypes.Prefix, order []announcement, roas *rpki.Store) trace.AlarmBundle {
	t.Helper()
	rec := trace.NewRecorder(256)
	mon := monitor.New(monitor.WithTrace(rec), monitor.WithRPKI(roas))
	for _, a := range order {
		mon.ObserveEntry("vantage", prefix, astypes.NewSeqPath(a.origin), a.list.Communities())
	}
	return onlyBundle(t, "monitor", rec)
}

// simBundle originates on a simulated line origin — detector — origin,
// converging after each origination so the order holds.
func simBundle(t *testing.T, detector astypes.ASN, prefix astypes.Prefix, order []announcement, roas *rpki.Store) trace.AlarmBundle {
	t.Helper()
	g := topology.NewGraph()
	for _, a := range order {
		g.AddEdge(a.origin, detector)
	}
	n, err := simbgp.NewNetwork(simbgp.Config{Topology: g, RPKI: roas})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetMode(detector, simbgp.ModeDetect); err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(256, trace.WithoutWallClock())
	n.AttachRecorder(rec)
	for _, a := range order {
		if err := n.Originate(a.origin, prefix, a.list); err != nil {
			t.Fatal(err)
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	return onlyBundle(t, "simbgp", rec)
}
