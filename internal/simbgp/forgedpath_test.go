package simbgp

import (
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
)

// TestForgedPathEvadesMOASDetection reproduces the second §4.3
// limitation as a negative result: the attacker claims a short path
// ending at the TRUE origin. The implicit MOAS list is {origin} —
// consistent with the valid announcements — so no alarm fires, yet
// traffic drawn by the shorter path physically enters the attacker.
func TestForgedPathEvadesMOASDetection(t *testing.T) {
	// 1 -- 2 -- 3 -- 4 -- 9: real origin AS 1, attacker AS 9 at the far
	// end claims to be directly adjacent to AS 1.
	g := lineTopology(1, 2, 3, 4, 9)
	valid := core.NewList(1)
	n := newNet(t, g, valid)
	detectAll(t, n, 9)
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	// AS 4's honest route is 3 hops ([3 2 1]).
	if hops := n.Node(4).Best(victim).Path.Hops(); hops != 3 {
		t.Fatalf("AS 4 honest hops = %d", hops)
	}

	// The attack: AS 9 claims path [1], i.e. a direct link to the
	// origin. Exported to AS 4 it becomes [9 1]: 2 hops, strictly
	// shorter than the honest 3.
	forged := astypes.NewSeqPath(1)
	if err := n.OriginateForgedPath(9, victim, forged, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}

	// No MOAS alarm anywhere: the forged announcement's implicit list
	// {1} matches the valid one.
	for _, asn := range n.Nodes() {
		if got := n.Node(asn).AlarmCount(); got != 0 {
			t.Errorf("AS %s alarmed (%d) — forged-path attacks should be invisible to MOAS checking", asn, got)
		}
	}
	// The RIB census also looks clean (origin is "valid")...
	c := n.TakeCensus(victim, valid)
	if c.AdoptedFalse != 0 {
		t.Errorf("RIB census flagged %d adopters; the forged origin is the valid one", c.AdoptedFalse)
	}
	// ...but the forwarding census exposes the hijack: AS 4's traffic
	// now flows into the attacker.
	fwd := n.TakeForwardingCensus(victim, valid)
	if fwd.AdoptedFalse == 0 {
		t.Error("forwarding census missed the forged-path capture")
	}
	best := n.Node(4).Best(victim)
	if best.FromPeer != 9 {
		t.Errorf("AS 4 next hop = %v, want the attacker 9", best.FromPeer)
	}
}
