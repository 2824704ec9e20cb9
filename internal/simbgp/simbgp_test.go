package simbgp

import (
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/topology"
)

var victim = astypes.MustPrefix(0x83b30000, 16)

func lineTopology(asns ...astypes.ASN) *topology.Graph {
	g := topology.NewGraph()
	for i := 1; i < len(asns); i++ {
		g.AddEdge(asns[i-1], asns[i])
	}
	return g
}

func resolverFor(valid core.List) core.Resolver {
	return ResolverFunc(func(p astypes.Prefix) (core.List, bool) {
		return valid, p == victim
	})
}

func newNet(t *testing.T, g *topology.Graph, valid core.List) *Network {
	t.Helper()
	n, err := NewNetwork(Config{Topology: g, Resolver: resolverFor(valid)})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func detectAll(t *testing.T, n *Network, except ...astypes.ASN) {
	t.Helper()
	skip := make(map[astypes.ASN]bool)
	for _, a := range except {
		skip[a] = true
	}
	for _, asn := range n.Nodes() {
		if !skip[asn] {
			if err := n.SetMode(asn, ModeDetect); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPropagationReachesAllNodes(t *testing.T) {
	n := newNet(t, lineTopology(1, 2, 3, 4, 5), core.NewList(1))
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	for _, asn := range n.Nodes() {
		best := n.Node(asn).Best(victim)
		if best == nil {
			t.Fatalf("AS %s has no route", asn)
		}
		if got := best.OriginAS(); got != 1 {
			t.Errorf("AS %s origin = %s", asn, got)
		}
	}
	// The received path covers every AS from the advertising neighbor
	// down to the origin: 4 hops away on the line.
	if hops := n.Node(5).Best(victim).Path.Hops(); hops != 4 {
		t.Errorf("AS 5 path hops = %d, want 4", hops)
	}
	if n.MessageCount() == 0 {
		t.Error("no messages counted")
	}
}

func TestShortestPathWins(t *testing.T) {
	g := lineTopology(1, 2, 3, 4)
	g.AddEdge(1, 4) // shortcut
	n := newNet(t, g, core.NewList(1))
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if hops := n.Node(4).Best(victim).Path.Hops(); hops != 1 {
		t.Errorf("AS 4 should use the direct link to the origin; hops = %d", hops)
	}
}

func TestWithdrawPropagates(t *testing.T) {
	n := newNet(t, lineTopology(1, 2, 3), core.NewList(1))
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.Withdraw(1, victim); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	for _, asn := range n.Nodes() {
		if n.Node(asn).Best(victim) != nil {
			t.Errorf("AS %s still has a route after withdrawal", asn)
		}
	}
}

func TestHijackWithoutDetection(t *testing.T) {
	// 1 -- 2 -- 3 -- 4 -- 5; attacker at 5: nodes 4 and 5's side adopt.
	n := newNet(t, lineTopology(1, 2, 3, 4, 5), core.NewList(1))
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.OriginateInvalid(5, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	census := n.TakeCensus(victim, core.NewList(1))
	if census.NonAttackers != 4 {
		t.Fatalf("NonAttackers = %d", census.NonAttackers)
	}
	if census.AdoptedFalse == 0 {
		t.Error("without detection someone must adopt the false route")
	}
	if census.AlarmedNodes != 0 {
		t.Error("normal nodes must not raise alarms")
	}
}

func TestHijackContainedByDetection(t *testing.T) {
	g := lineTopology(1, 2, 3, 4, 5)
	g.AddEdge(1, 3) // extra connectivity so the valid route reaches 3 fast
	n := newNet(t, g, core.NewList(1))
	detectAll(t, n, 5)
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.OriginateInvalid(5, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	census := n.TakeCensus(victim, core.NewList(1))
	if census.AdoptedFalse != 0 {
		t.Errorf("detection failed: %d adopters", census.AdoptedFalse)
	}
	if census.AlarmedNodes == 0 {
		t.Error("no node raised an alarm")
	}
	// The attacker's direct neighbor must have detected it.
	if n.Node(4).AlarmCount() == 0 {
		t.Error("AS 4 (attacker's neighbor) saw no conflict")
	}
}

func TestValidMOASNoFalseAlarms(t *testing.T) {
	// Figure 2: prefix originated by AS 1 and AS 2 with identical lists.
	g := topology.NewGraph()
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	valid := core.NewList(1, 2)
	n := newNet(t, g, valid)
	detectAll(t, n)
	for _, origin := range []astypes.ASN{1, 2} {
		if err := n.Originate(origin, victim, valid); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	for _, asn := range n.Nodes() {
		if got := n.Node(asn).AlarmCount(); got != 0 {
			t.Errorf("AS %s raised %d false alarm(s)", asn, got)
		}
		if n.Node(asn).Best(victim) == nil {
			t.Errorf("AS %s lost the valid route", asn)
		}
	}
}

func TestForgedSupersetListDetected(t *testing.T) {
	// §4.1: attacker attaches {1, 2, Z}; inconsistent with {1, 2}.
	g := topology.NewGraph()
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 9)
	valid := core.NewList(1, 2)
	n := newNet(t, g, valid)
	detectAll(t, n, 9)
	for _, origin := range []astypes.ASN{1, 2} {
		if err := n.Originate(origin, victim, valid); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.OriginateInvalid(9, victim, valid.WithOrigin(9)); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	census := n.TakeCensus(victim, valid)
	if census.AdoptedFalse != 0 {
		t.Errorf("forged superset list adopted by %d nodes", census.AdoptedFalse)
	}
	if n.Node(4).AlarmCount() == 0 {
		t.Error("AS 4 did not alarm on the forged list")
	}
}

func TestCapturedNodeAdoptsOnColdStart(t *testing.T) {
	// AS 9's only provider is the attacker: with a cold start it never
	// sees the valid route — the paper's single-path caveat (§4.1).
	g := lineTopology(1, 2, 5)
	g.AddEdge(5, 9)
	n := newNet(t, g, core.NewList(1))
	detectAll(t, n, 5)
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.OriginateInvalid(5, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	best := n.Node(9).Best(victim)
	if best == nil || best.OriginAS() != 5 {
		t.Errorf("captured node should adopt the only route it sees: %+v", best)
	}
	census := n.TakeCensus(victim, core.NewList(1))
	if census.AdoptedFalse != 1 {
		t.Errorf("AdoptedFalse = %d, want 1 (the captured stub)", census.AdoptedFalse)
	}
}

func TestStripMOASInTransit(t *testing.T) {
	// A stripping node removes MOAS communities from routes it relays;
	// downstream checkers then see the implicit single-origin list,
	// which for a valid 2-origin MOAS raises a (false) alarm — the §4.3
	// community-drop caveat.
	g := lineTopology(1, 3, 4)
	g.AddEdge(2, 3)
	valid := core.NewList(1, 2)
	n := newNet(t, g, valid)
	if err := n.SetStripMOAS(3, true); err != nil {
		t.Fatal(err)
	}
	if err := n.SetMode(4, ModeDetect); err != nil {
		t.Fatal(err)
	}
	for _, origin := range []astypes.ASN{1, 2} {
		if err := n.Originate(origin, victim, valid); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	best := n.Node(4).Best(victim)
	if best == nil {
		t.Fatal("AS 4 has no route")
	}
	if _, has := core.FromCommunities(best.Communities); has {
		t.Error("MOAS communities survived the stripping node")
	}
}

func TestForwardingCensusSeesProviderCapture(t *testing.T) {
	// 1 -- 2 -- 5(attacker) -- 9: at quiescence AS 9 routes via 5.
	g := lineTopology(1, 2, 5, 9)
	n := newNet(t, g, core.NewList(1))
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.OriginateInvalid(5, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	rib := n.TakeCensus(victim, core.NewList(1))
	fwd := n.TakeForwardingCensus(victim, core.NewList(1))
	if fwd.AdoptedFalse < rib.AdoptedFalse {
		t.Errorf("forwarding census (%d) must not undercount the RIB census (%d)",
			fwd.AdoptedFalse, rib.AdoptedFalse)
	}
	// AS 9's traffic necessarily enters the attacker.
	if n.forwardOutcome(n.Node(9), victim, core.NewList(1)) != outcomeHijacked {
		t.Error("AS 9's traffic should be hijacked")
	}
}

func TestSetModeUnknownNode(t *testing.T) {
	n := newNet(t, lineTopology(1, 2), core.NewList(1))
	if err := n.SetMode(99, ModeDetect); err == nil {
		t.Error("unknown node accepted")
	}
	if err := n.SetStripMOAS(99, true); err == nil {
		t.Error("unknown node accepted for strip")
	}
	if err := n.Originate(99, victim, core.List{}); err == nil {
		t.Error("unknown originator accepted")
	}
	if err := n.OriginateInvalid(99, victim, core.List{}); err == nil {
		t.Error("unknown attacker accepted")
	}
	if err := n.Withdraw(99, victim); err == nil {
		t.Error("unknown withdrawer accepted")
	}
}

func TestEmptyTopologyRejected(t *testing.T) {
	if _, err := NewNetwork(Config{Topology: topology.NewGraph()}); err == nil {
		t.Error("empty topology accepted")
	}
	if _, err := NewNetwork(Config{}); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (Census, uint64) {
		g := lineTopology(1, 2, 3, 4, 5)
		g.AddEdge(2, 5)
		n := newNet(t, g, core.NewList(1))
		detectAll(t, n, 4)
		if err := n.Originate(1, victim, core.List{}); err != nil {
			t.Fatal(err)
		}
		if err := n.OriginateInvalid(4, victim, core.List{}); err != nil {
			t.Fatal(err)
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
		return n.TakeCensus(victim, core.NewList(1)), n.MessageCount()
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Errorf("runs diverge: %+v/%d vs %+v/%d", c1, m1, c2, m2)
	}
}

func TestCensusFalsePct(t *testing.T) {
	c := Census{NonAttackers: 40, AdoptedFalse: 10}
	if got := c.FalsePct(); got != 25 {
		t.Errorf("FalsePct = %v", got)
	}
	if (Census{}).FalsePct() != 0 {
		t.Error("empty census should be 0%")
	}
}
