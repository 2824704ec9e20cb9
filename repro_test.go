package repro_test

import (
	"net"
	"testing"
	"time"

	"repro"
	"repro/internal/wire"
)

// TestFacadeSimulationEndToEnd drives the simulation facade: build a
// topology, run a hijack with detection, check the census.
func TestFacadeSimulationEndToEnd(t *testing.T) {
	g := repro.NewGraph()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	g.AddEdge(3, 4)
	prefix := repro.MustPrefix(0x0a000000, 8)
	valid := repro.NewList(1)

	net, err := repro.NewSimNetwork(repro.SimConfig{
		Topology: g,
		Resolver: repro.ResolverFunc(func(p repro.Prefix) (repro.List, bool) {
			return valid, p == prefix
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range net.Nodes() {
		if asn != 4 {
			if err := net.SetMode(asn, repro.SimModeDetect); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := net.Originate(1, prefix, repro.List{}); err != nil {
		t.Fatal(err)
	}
	if err := net.OriginateInvalid(4, prefix, repro.List{}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	census := net.TakeCensus(prefix, valid)
	if census.AdoptedFalse != 0 {
		t.Errorf("census = %+v", census)
	}
	if census.AlarmedNodes == 0 {
		t.Error("no alarms raised")
	}
}

// TestFacadeExperimentHarness runs a small sweep through the facade.
func TestFacadeExperimentHarness(t *testing.T) {
	set, err := repro.BuildPaperTopologies(42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Sweep(repro.SweepConfig{
		Topology:       set.T25,
		TopologyName:   "25",
		NumOrigins:     1,
		AttackerCounts: repro.AttackerCountsFor(set.T25, 10),
		Modes: []repro.ModeSpec{
			{Label: "normal", Detection: repro.DetectionOff},
			{Label: "full", Detection: repro.DetectionFull},
		},
		Seed:      1,
		ColdStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.MeanFalsePct[1] > p.MeanFalsePct[0] {
			t.Errorf("detection worse than normal at %d attackers", p.NumAttackers)
		}
	}
}

// TestFacadeMeasurement runs a short measurement window through the
// facade types.
func TestFacadeMeasurement(t *testing.T) {
	cfg := repro.DefaultDumpConfig()
	cfg.Days = 60
	cfg.SingleOriginPrefixes = 200
	cfg.BaseCases = 30
	cfg.GrowthCases = 10
	cfg.ChurnCases = 10
	cfg.ShortFaultCases = 5
	cfg.ExchangePointCases = 1
	cfg.Events = nil
	gen, err := repro.NewDumpGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := repro.MeasureMOAS(gen)
	if err != nil {
		t.Fatal(err)
	}
	s := analysis.Summarize()
	if s.TotalCases == 0 {
		t.Error("no MOAS cases measured")
	}
}

// TestFacadeLiveSpeakersWithMOASRR exercises Speaker + MOASRRStore +
// Monitor together: the full deployment story of §4.2/§4.4.
func TestFacadeLiveSpeakersWithMOASRR(t *testing.T) {
	prefix := repro.MustPrefix(0xc0000000, 8)
	store := repro.NewMOASRRStore(repro.WithSigningKey([]byte("k")))
	store.Register(prefix, repro.NewList(10))

	mkSpeaker := func(asn repro.ASN, mode repro.ValidationMode) *repro.Speaker {
		s, err := repro.NewSpeaker(repro.SpeakerConfig{
			AS:         asn,
			RouterID:   uint32(asn),
			Validation: mode,
			Resolver:   store,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	origin := mkSpeaker(10, repro.ValidationOff)
	transit := mkSpeaker(20, repro.ValidationDrop)
	attacker := mkSpeaker(30, repro.ValidationOff)

	link := func(a, b *repro.Speaker) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		a.Listen(ln)
		if err := b.Connect(ln.Addr().String(), a.AS()); err != nil {
			t.Fatal(err)
		}
	}
	link(transit, origin)
	link(transit, attacker)

	origin.Originate(prefix, repro.List{})
	waitFor(t, func() bool { return transit.Table().Best(prefix) != nil })
	attacker.Originate(prefix, repro.List{})
	waitFor(t, func() bool { return len(transit.Alarms()) > 0 })

	best := transit.Table().Best(prefix)
	if best == nil || best.OriginAS() != 10 {
		t.Errorf("transit best = %+v, want origin 10", best)
	}

	// The off-line monitor reaches the same verdict from the RIB.
	mon := repro.NewMonitor(repro.WithMonitorResolver(store))
	for _, r := range transit.Table().BestRoutes() {
		mon.ObserveUpdate("transit", &wire.Update{
			NLRI:  []repro.Prefix{r.Prefix},
			Attrs: wire.PathAttrs{ASPath: r.Path, Communities: r.Communities},
		})
	}
	mon.ObserveUpdate("transit", &wire.Update{
		NLRI:  []repro.Prefix{prefix},
		Attrs: wire.PathAttrs{ASPath: repro.NewSeqPath(30)},
	})
	cases := mon.MOASCases()
	if len(cases) != 1 || !cases[0].Invalid {
		t.Errorf("monitor cases = %+v", cases)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timeout")
}
