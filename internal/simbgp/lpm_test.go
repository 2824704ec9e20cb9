package simbgp

import (
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
)

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
