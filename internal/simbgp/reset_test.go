package simbgp

import (
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/rib"
	"repro/internal/topology"
)

// runAttackScenario originates the valid route, converges, launches the
// attack, converges again, and returns both censuses — a representative
// experiment.Run-shaped workload.
func runAttackScenario(t *testing.T, n *Network) (Census, Census, uint64) {
	t.Helper()
	valid := core.NewList(1)
	for _, asn := range n.Nodes() {
		if asn != 1 && asn != 5 {
			if err := n.SetMode(asn, ModeDetect); err != nil {
				t.Fatal(err)
			}
		}
	}
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
	return n.TakeCensus(victim, valid), n.TakeForwardingCensus(victim, valid), n.MessageCount()
}

func TestResetMatchesFreshNetwork(t *testing.T) {
	g := lineTopology(1, 2, 3, 4, 5)
	g.AddEdge(2, 5)
	valid := core.NewList(1)
	cfg := Config{Topology: g, Resolver: resolverFor(valid)}

	fresh, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRIB, wantFwd, wantMsgs := runAttackScenario(t, fresh)

	// A network that has already run a *different* scenario, then Reset,
	// must reproduce the fresh network's outcome exactly.
	reused, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dirtyNetwork(t, reused)
	node3 := reused.Node(3)
	if err := reused.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if reused.Node(3) != node3 {
		t.Fatal("Reset must keep *Node pointers stable")
	}
	if reused.MessageCount() != 0 || reused.Engine().Now() != 0 {
		t.Fatalf("Reset left msgCount=%d now=%v", reused.MessageCount(), reused.Engine().Now())
	}
	if reused.Node(2).AlarmCount() != 0 || reused.Node(2).Mode() != ModeNormal {
		t.Fatal("Reset left node state behind")
	}
	gotRIB, gotFwd, gotMsgs := runAttackScenario(t, reused)
	if gotRIB != wantRIB || gotFwd != wantFwd || gotMsgs != wantMsgs {
		t.Errorf("reset run diverged:\n rib  %+v vs %+v\n fwd  %+v vs %+v\n msgs %d vs %d",
			gotRIB, wantRIB, gotFwd, wantFwd, gotMsgs, wantMsgs)
	}
}

// dirtyNetwork runs a scenario unlike runAttackScenario on the line
// 1-2-3-4-5 with the 2-5 chord, leaving behind every kind of per-run
// state Reset must clear: a stripping node, node modes, alarms and a
// resolved prefix from an attack, and the adjacency state of a
// withdrawal.
func dirtyNetwork(t *testing.T, n *Network) {
	t.Helper()
	for _, asn := range []astypes.ASN{2, 3} {
		if err := n.SetMode(asn, ModeDetect); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.SetStripMOAS(3, true); err != nil {
		t.Fatal(err)
	}
	if err := n.Originate(4, victim, core.NewList(4)); err != nil {
		t.Fatal(err)
	}
	if err := n.OriginateInvalid(5, victim, core.NewList(5)); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.Withdraw(4, victim); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Node(2).AlarmCount() == 0 {
		t.Fatal("dirtying scenario raised no alarm at AS 2")
	}
}

func TestResetRejectsForeignTopology(t *testing.T) {
	g := lineTopology(1, 2, 3)
	n, err := NewNetwork(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	other := lineTopology(1, 2, 3)
	if err := n.Reset(Config{Topology: other}); err == nil {
		t.Error("Reset accepted a different topology value")
	}
	if err := n.Reset(Config{Topology: g}); err != nil {
		t.Errorf("Reset rejected its own topology: %v", err)
	}
}

func TestResetSwapsRunConfig(t *testing.T) {
	// Relations and the resolver are per-run settings: a Reset must
	// apply the new values, not echo the old ones. On the line 1-2-3,
	// AS 2 is a customer of both 1 and 3.
	g := lineTopology(1, 2, 3)
	rel := topology.NewRelations()
	rel.Set(1, 2, topology.RelProvider)
	rel.Set(3, 2, topology.RelProvider)
	n, err := NewNetwork(Config{Topology: g, Relations: rel})
	if err != nil {
		t.Fatal(err)
	}
	// scenario runs AS 2 in detection mode: 1 originates, then 3 attacks.
	// It returns 3's best route before the attack and 2's after it.
	scenario := func() (before3, after2 *rib.Route) {
		t.Helper()
		if err := n.SetMode(2, ModeDetect); err != nil {
			t.Fatal(err)
		}
		if err := n.Originate(1, victim, core.List{}); err != nil {
			t.Fatal(err)
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
		before3 = n.Node(3).Best(victim)
		if err := n.OriginateInvalid(3, victim, core.List{}); err != nil {
			t.Fatal(err)
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
		return before3, n.Node(2).Best(victim)
	}

	// Valley-free and no resolver: 2 does not export its provider 1's
	// route to its other provider 3, and with the conflict unresolvable
	// it rejects 3's route as the newcomer.
	before3, after2 := scenario()
	if before3 != nil {
		t.Errorf("AS 3 under valley-free: best %+v, want no route", before3)
	}
	if after2 == nil || after2.OriginAS() != 1 {
		t.Errorf("AS 2 with no resolver: best %+v, want origin 1", after2)
	}

	// Flooding and a resolver naming 3: 2 passes 1's route on to 3, and
	// resolves the conflict in 3's favour.
	if err := n.Reset(Config{Topology: g, Resolver: resolverFor(core.NewList(3))}); err != nil {
		t.Fatal(err)
	}
	before3, after2 = scenario()
	if before3 == nil || before3.OriginAS() != 1 {
		t.Errorf("AS 3 after Reset without relations: best %+v, want 1's route", before3)
	}
	if after2 == nil || after2.OriginAS() != 3 {
		t.Errorf("AS 2 after Reset with a resolver: best %+v, want origin 3", after2)
	}
}

// TestDeliveryAllocsZero pins the tentpole guarantee on the simulator
// side: once the inflight pool and event queue are warm, sending and
// delivering a message allocates nothing. A withdraw for an absent
// route exercises the pure delivery machinery (schedule, slot pool,
// dispatch, receive, no-op RIB update) with no route installation.
func TestDeliveryAllocsZero(t *testing.T) {
	g := lineTopology(1, 2)
	n, err := NewNetwork(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	nd := n.Node(1)
	s := nd.slotOf(2)
	if s < 0 {
		t.Fatal("no adjacency slot")
	}
	none := astypes.MustPrefix(0x0a000000, 8)
	warm := func() {
		n.sendSlot(nd, s, message{from: 1, prefix: none, withdraw: true})
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	allocs := testing.AllocsPerRun(200, warm)
	if allocs != 0 {
		t.Errorf("steady-state message delivery allocates %v per send+deliver, want 0", allocs)
	}

	// Detect mode: AS 2 checks every announcement against the MOAS lists
	// it holds. Replaying AS 1's route for a legitimately multi-origin
	// prefix walks every held slot; replaying AS 9's forged origin for
	// the already resolved victim is filtered by the resolved origin set.
	n, valid, multi := detectStar(t)
	nd2 := n.Node(2)
	alarms := nd2.alarms
	st, _ := n.stateOf(multi)
	legit := message{from: 1, prefix: multi}
	held := n.slotBase[nd2.idx] + int32(nd2.slotOf(1))
	legit.pathID, legit.commID = st.adjPath[held], st.adjComm[held]
	forged := message{
		from:   9,
		prefix: victim,
		pathID: n.paths.prepend(0, 9),
		commID: n.comms.intern(valid.Communities(), n.lists),
	}
	from1, from9 := n.Node(1), n.Node(9)
	replay := func() {
		n.sendSlot(from1, from1.slotOf(2), legit)
		n.sendSlot(from9, from9.slotOf(2), forged)
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	replay()
	if allocs := testing.AllocsPerRun(200, replay); allocs != 0 {
		t.Errorf("detect-mode delivery allocates %v per replay, want 0", allocs)
	}
	if got := nd2.alarms; got != alarms {
		t.Errorf("replays raised %d new alarms; the resolved set should filter them", got-alarms)
	}
	if best := nd2.Best(victim); best == nil || !valid.Contains(best.OriginAS()) {
		t.Errorf("AS 2 best route for the victim: %v", best)
	}
}

// detectStar builds AS 2 in detect mode between ASes 1, 3 and 9. ASes 1
// and 3 both originate the victim and a second prefix with the list
// {1, 3}; attacker 9 originates the victim with a forged origin under
// the same list, so AS 2 alarms once and resolves the victim.
func detectStar(t *testing.T) (n *Network, valid core.List, multi astypes.Prefix) {
	t.Helper()
	g := topology.NewGraph()
	g.AddEdge(1, 2)
	g.AddEdge(3, 2)
	g.AddEdge(9, 2)
	valid = core.NewList(1, 3)
	multi = astypes.MustPrefix(0x0a000000, 24)
	n = newNet(t, g, valid)
	if err := n.SetMode(2, ModeDetect); err != nil {
		t.Fatal(err)
	}
	for _, asn := range []astypes.ASN{1, 3} {
		for _, p := range []astypes.Prefix{victim, multi} {
			if err := n.Originate(asn, p, valid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.OriginateInvalid(9, victim, valid); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Node(2).alarms; got != 1 {
		t.Fatalf("AS 2 raised %d alarms, want 1", got)
	}
	return n, valid, multi
}

// TestCensusAllocsZero: both censuses are read-only walks over the
// converged state, so taking them after every run of a sweep allocates
// nothing.
func TestCensusAllocsZero(t *testing.T) {
	n, valid, _ := detectStar(t)
	var c, fwd Census
	take := func() {
		c = n.TakeCensus(victim, valid)
		fwd = n.TakeForwardingCensus(victim, valid)
	}
	take()
	if allocs := testing.AllocsPerRun(200, take); allocs != 0 {
		t.Errorf("census allocates %v per run, want 0", allocs)
	}
	if c.NonAttackers != 3 || c.AdoptedFalse != 0 || fwd.AdoptedFalse != 0 || c.AlarmedNodes != 1 {
		t.Errorf("census %+v, forwarding census %+v", c, fwd)
	}
}

// TestSharedAdvertisementIsolation guards the build-once sharing: the
// path and communities one propagation hands to several peers must not
// be corrupted by any receiver (installs clone; in-transit is
// read-only).
func TestSharedAdvertisementIsolation(t *testing.T) {
	// Star: 2 is adjacent to 1, 3, 4, 5 — one propagation from 2 fans
	// out to three peers sharing one built advertisement.
	g := topology.NewGraph()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(2, 4)
	g.AddEdge(2, 5)
	n, err := NewNetwork(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	list := core.NewList(1, 7)
	if err := n.Originate(1, victim, list); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	for _, asn := range []astypes.ASN{3, 4, 5} {
		best := n.Node(asn).Best(victim)
		if best == nil {
			t.Fatalf("AS %s has no route", asn)
		}
		if got := best.Path.Hops(); got != 2 {
			t.Errorf("AS %s path hops = %d, want 2", asn, got)
		}
		eff, err := core.EffectiveList(best.Communities, best.Path)
		if err != nil {
			t.Fatal(err)
		}
		if eff != list {
			t.Errorf("AS %s effective list = %v, want %v", asn, eff, list)
		}
	}
	// Mutating one receiver's stored route must not leak into another's
	// (each installed its own clone).
	r3 := n.Node(3).Best(victim).Clone()
	r3.Communities[0] = astypes.Community(0)
	if eff, _ := core.EffectiveList(n.Node(4).Best(victim).Communities, n.Node(4).Best(victim).Path); eff != list {
		t.Error("clone isolation violated across receivers")
	}
}
