package simbgp

import (
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
)

func TestLinkFailureReroutes(t *testing.T) {
	// 1 -- 2 -- 3 with a backup path 1 -- 4 -- 3.
	g := lineTopology(1, 2, 3)
	g.AddEdge(1, 4)
	g.AddEdge(4, 3)
	n := newNet(t, g, core.NewList(1))
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Node(3).Best(victim).FromPeer; got != 2 && got != 4 {
		t.Fatalf("unexpected next hop %v", got)
	}
	primary := n.Node(3).Best(victim).FromPeer

	if err := n.FailLink(3, primary); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	best := n.Node(3).Best(victim)
	if best == nil {
		t.Fatal("no route after failover")
	}
	if best.FromPeer == primary {
		t.Errorf("still routing via the failed link")
	}
	if best.OriginAS() != 1 {
		t.Errorf("failover changed origin: %v", best.OriginAS())
	}
	if !n.LinkFailed(3, primary) || !n.LinkFailed(primary, 3) {
		t.Error("LinkFailed should be symmetric")
	}

	// Restore: route may move back (shorter path wins again only if
	// strictly shorter; both paths are 2 hops here so prefer-oldest
	// keeps the backup). Either way the node stays connected.
	if err := n.RestoreLink(3, primary); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Node(3).Best(victim) == nil {
		t.Error("route lost after restore")
	}
	if n.LinkFailed(3, primary) {
		t.Error("link still marked failed")
	}
}

func TestLinkFailurePartitionsAndWithdraws(t *testing.T) {
	n := newNet(t, lineTopology(1, 2, 3), core.NewList(1))
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	for _, asn := range []astypes.ASN{2, 3} {
		if n.Node(asn).Best(victim) != nil {
			t.Errorf("AS %s kept a route across the partition", asn)
		}
	}
	// Restore heals the partition.
	if err := n.RestoreLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	for _, asn := range []astypes.ASN{2, 3} {
		if n.Node(asn).Best(victim) == nil {
			t.Errorf("AS %s has no route after heal", asn)
		}
	}
}

func TestFailLinkValidation(t *testing.T) {
	n := newNet(t, lineTopology(1, 2), core.NewList(1))
	if err := n.FailLink(1, 99); err == nil {
		t.Error("unknown endpoint accepted")
	}
	g := lineTopology(1, 2, 3)
	n2 := newNet(t, g, core.NewList(1))
	if err := n2.FailLink(1, 3); err == nil {
		t.Error("non-adjacent pair accepted")
	}
}

func TestDetectionSurvivesLinkFailure(t *testing.T) {
	// After the valid route's primary path fails, detection state keeps
	// rejecting the attacker via the backup path.
	g := lineTopology(1, 2, 3)
	g.AddEdge(1, 4)
	g.AddEdge(4, 3)
	g.AddEdge(3, 9)
	n := newNet(t, g, core.NewList(1))
	detectAll(t, n, 9)
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.OriginateInvalid(9, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	best := n.Node(3).Best(victim)
	if best == nil || best.OriginAS() != 1 {
		t.Errorf("AS 3 after failover: %+v", best)
	}
	// Flap the attacker's link: on restore AS 9 re-advertises its
	// shorter forged route, which AS 3 must still reject.
	for _, flap := range []func(a, b astypes.ASN) error{n.FailLink, n.RestoreLink} {
		if err := flap(3, 9); err != nil {
			t.Fatal(err)
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	best = n.Node(3).Best(victim)
	if best == nil || best.OriginAS() != 1 {
		t.Errorf("AS 3 after the attacker's link flapped: %+v", best)
	}
}

func TestSubprefixHijackEvadesMOASDetection(t *testing.T) {
	// The §4.3 limitation, reproduced as a negative result: the victim
	// announces /16; the attacker announces a /24 inside it. No MOAS
	// conflict exists (different prefixes), so no alarms fire — yet
	// traffic to the /24 lands at the attacker under longest-prefix-
	// match forwarding everywhere.
	sub := astypes.MustPrefix(victim.Addr|0x4500, 24)
	g := lineTopology(1, 2, 3, 9)
	n := newNet(t, g, core.NewList(1))
	detectAll(t, n, 9)
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.OriginateInvalid(9, sub, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	for _, asn := range n.Nodes() {
		if got := n.Node(asn).AlarmCount(); got != 0 {
			t.Errorf("AS %s raised %d alarms — subprefix hijack should be invisible to MOAS checking", asn, got)
		}
	}
	// Per-prefix census for the /16 looks clean...
	if c := n.TakeCensus(victim, core.NewList(1)); c.AdoptedFalse != 0 {
		t.Errorf("/16 census = %+v", c)
	}
	// ...but traffic to an address in the /24 is captured network-wide.
	addr := sub.Addr | 7
	lpm := n.TakeLPMCensus(addr, core.NewList(1))
	if lpm.Hijacked != lpm.NonAttackers {
		t.Errorf("LPM census = %+v, want every non-attacker hijacked", lpm)
	}
	// Traffic to an address outside the /24 still reaches the victim.
	safe := n.TakeLPMCensus(victim.Addr|7, core.NewList(1))
	if safe.Delivered != safe.NonAttackers {
		t.Errorf("safe-address census = %+v", safe)
	}
}

func TestForwardAddrNoRoute(t *testing.T) {
	n := newNet(t, lineTopology(1, 2), core.NewList(1))
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if _, delivered := n.ForwardAddr(2, 0x0a000001); delivered {
		t.Error("delivery without any route")
	}
}
