package rib

import (
	"testing"

	"repro/internal/astypes"
	"repro/internal/wire"
)

var prefix = astypes.MustPrefix(0x83b30000, 16)

func route(peer astypes.ASN, hops ...astypes.ASN) *Route {
	return &Route{
		Prefix:    prefix,
		Path:      astypes.NewSeqPath(hops...),
		Origin:    wire.OriginIGP,
		LocalPref: DefaultLocalPref,
		FromPeer:  peer,
	}
}

func TestCompareRules(t *testing.T) {
	shorter := route(2, 2, 4).rank()
	longer := route(3, 3, 5, 4).rank()
	if !shorter.Better(longer) || longer.Better(shorter) {
		t.Error("shorter path should win")
	}
	higherPref := route(3, 3, 5, 4)
	higherPref.LocalPref = 200
	if !higherPref.rank().Better(shorter) {
		t.Error("LOCAL_PREF should dominate path length")
	}
	egp := route(2, 2, 4)
	egp.Origin = wire.OriginEGP
	if !shorter.Better(egp.rank()) || egp.rank().Better(shorter) {
		t.Error("lower ORIGIN code should win")
	}
	if tie := route(9, 9, 4).rank(); !shorter.ties(tie) || shorter.ties(longer) {
		t.Error("equal attributes should tie, and only they")
	}
	// The packing keeps the order at the extremes of every attribute.
	low := NewRank(0, maxRankHops, 255, astypes.ASN(1<<32-1))
	if !NewRank(0, maxRankHops-1, 255, 0).Better(low) || !NewRank(1, maxRankHops, 255, 0).Better(low) ||
		!NewRank(0, maxRankHops, 254, 0).Better(low) || !low.Better(Rank{}) {
		t.Error("hop count, LOCAL_PREF, ORIGIN or the zero Rank misordered at the extremes")
	}
	if !NewRank(1<<32-1, 0, 0, 0).Better(NewRank(1<<32-2, 0, 0, 0)) {
		t.Error("LOCAL_PREF misordered at the top of its range")
	}
}

func TestBetterBreaksTiesByPeer(t *testing.T) {
	a := route(2, 2, 4).rank()
	b := route(9, 9, 4).rank()
	if !a.Better(b) || b.Better(a) {
		t.Error("lower peer ASN should break full ties")
	}
	if a.Better(a) {
		t.Error("a rank is not better than itself")
	}
	local := route(astypes.ASNNone, 4, 4).rank()
	if !local.Better(a) {
		t.Error("a local route should win a full tie")
	}
	// The first offer wins whatever its rank; later ones must beat it.
	var sel Selection
	if !sel.Offer(b) || sel.Offer(b) || !sel.Offer(a) {
		t.Error("Selection.Offer: first offer or strict improvement should win")
	}
}

func TestTableSelectsShortest(t *testing.T) {
	tbl := NewTable()
	tbl.Update(route(2, 2, 7, 4))
	ch := tbl.Update(route(3, 3, 4))
	if !ch.Changed {
		t.Fatal("shorter route should change best")
	}
	best := tbl.Best(prefix)
	if best == nil || best.FromPeer != 3 {
		t.Errorf("best = %+v", best)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestTablePreferOldestOnTie(t *testing.T) {
	tbl := NewTable()
	first := tbl.Update(route(9, 9, 4))
	if !first.Changed {
		t.Fatal("first route should install")
	}
	// An attribute-tied route from a lower-ASN peer must NOT displace
	// the incumbent (prefer-oldest stability rule).
	ch := tbl.Update(route(2, 2, 4))
	if ch.Changed {
		t.Errorf("tied route displaced incumbent: %+v", ch.New)
	}
	if best := tbl.Best(prefix); best.FromPeer != 9 {
		t.Errorf("best.FromPeer = %v, want 9", best.FromPeer)
	}
	// A strictly better route must displace it.
	ch = tbl.Update(route(2, 2))
	if !ch.Changed || ch.New.FromPeer != 2 {
		t.Errorf("strictly better route not selected: %+v", ch.New)
	}
}

func TestTableWithdraw(t *testing.T) {
	tbl := NewTable()
	tbl.Update(route(2, 2, 4))
	tbl.Update(route(3, 3, 7, 4))
	ch := tbl.Withdraw(2, prefix)
	if !ch.Changed || ch.New == nil || ch.New.FromPeer != 3 {
		t.Errorf("withdraw should fall back to peer 3: %+v", ch.New)
	}
	ch = tbl.Withdraw(3, prefix)
	if !ch.Changed || ch.New != nil {
		t.Errorf("final withdraw should empty the table: %+v", ch.New)
	}
	if tbl.Best(prefix) != nil {
		t.Error("best should be nil after all withdrawals")
	}
	// Withdrawing something absent is a no-op.
	if ch := tbl.Withdraw(5, prefix); ch.Changed {
		t.Error("withdraw of absent route changed state")
	}
}

func TestTableLocalRoutes(t *testing.T) {
	tbl := NewTable()
	local := route(astypes.ASNNone, 4)
	tbl.Originate(local)
	// A learned route with a longer path must not displace the local.
	tbl.Update(route(2, 2, 7, 4))
	if best := tbl.Best(prefix); best.FromPeer != astypes.ASNNone {
		t.Errorf("local route should win: %+v", best)
	}
	ch := tbl.WithdrawLocal(prefix)
	if !ch.Changed || ch.New == nil || ch.New.FromPeer != 2 {
		t.Errorf("withdraw local: %+v", ch.New)
	}
	// RoutesFrom(ASNNone) exposes locals.
	tbl.Originate(local)
	if got := tbl.RoutesFrom(astypes.ASNNone); len(got) != 1 {
		t.Errorf("RoutesFrom(none) = %d routes", len(got))
	}
}

func TestTableDropPeer(t *testing.T) {
	tbl := NewTable()
	p2 := astypes.MustPrefix(0x0a000000, 8)
	tbl.Update(route(2, 2, 4))
	r2 := route(2, 2, 9)
	r2.Prefix = p2
	tbl.Update(r2)
	tbl.Update(route(3, 3, 7, 4))
	changes := tbl.DropPeer(2)
	if len(changes) != 2 {
		t.Fatalf("DropPeer changes = %d, want 2", len(changes))
	}
	if best := tbl.Best(prefix); best == nil || best.FromPeer != 3 {
		t.Errorf("best after drop = %+v", best)
	}
	if tbl.Best(p2) != nil {
		t.Error("p2 should be gone")
	}
	if got := tbl.DropPeer(2); got != nil {
		t.Error("second DropPeer should be empty")
	}
}

func TestTableStoresClones(t *testing.T) {
	tbl := NewTable()
	r := route(2, 2, 4)
	tbl.Update(r)
	r.Path.Segments[0].ASNs[0] = 99 // mutate caller's copy
	if best := tbl.Best(prefix); best.Path.String() != "2 4" {
		t.Errorf("table aliased caller storage: %v", best.Path)
	}
	// Reads hand out the shared immutable route; a caller that needs a
	// mutable copy clones it, and that clone must not alias the table.
	cp := tbl.Best(prefix).Clone()
	cp.Path.Segments[0].ASNs[0] = 77
	if again := tbl.Best(prefix); again.Path.String() != "2 4" {
		t.Errorf("Clone aliased table storage: %v", again.Path)
	}
}

func TestTableOwnedVariantsSkipClone(t *testing.T) {
	tbl := NewTable()
	owned := route(2, 2, 4)
	tbl.UpdateOwned(owned)
	if best := tbl.Best(prefix); best != owned {
		t.Error("UpdateOwned should install the route without copying")
	}
	lr := route(astypes.ASNNone, 4)
	tbl.OriginateOwned(lr)
	if got := tbl.RoutesFrom(astypes.ASNNone); len(got) != 1 || got[0] != lr {
		t.Error("OriginateOwned should install the route without copying")
	}
	if best := tbl.Best(prefix); best != lr {
		t.Error("local one-hop route should win the decision process")
	}
}

func TestTableIdempotentUpdate(t *testing.T) {
	tbl := NewTable()
	tbl.Update(route(2, 2, 4))
	ch := tbl.Update(route(2, 2, 4))
	if ch.Changed {
		t.Error("identical re-announcement should not signal change")
	}
	// Same peer, different path: implicit replacement.
	ch = tbl.Update(route(2, 2, 9, 4))
	if !ch.Changed {
		t.Error("replacement with longer path should still change best (same source)")
	}
	if best := tbl.Best(prefix); best.Path.Hops() != 3 {
		t.Errorf("best path = %v", best.Path)
	}
}

func TestBestRoutesSortedAndOriginAS(t *testing.T) {
	tbl := NewTable()
	pA := astypes.MustPrefix(0x0a000000, 8)
	pB := astypes.MustPrefix(0x14000000, 8)
	rB := route(2, 2, 5)
	rB.Prefix = pB
	tbl.Update(rB)
	rA := route(2, 2, 4)
	rA.Prefix = pA
	tbl.Update(rA)
	routes := tbl.BestRoutes()
	if len(routes) != 2 || routes[0].Prefix != pA || routes[1].Prefix != pB {
		t.Errorf("BestRoutes order wrong: %+v", routes)
	}
	if routes[0].OriginAS() != 4 || routes[1].OriginAS() != 5 {
		t.Error("OriginAS wrong")
	}
}

func TestRouteFrom(t *testing.T) {
	tbl := NewTable()
	r2 := route(2, 2, 4)
	r3 := route(3, 3, 5, 4)
	tbl.Update(r2)
	tbl.Update(r3)
	lr := route(astypes.ASNNone, 7)
	tbl.Originate(lr)
	if got := tbl.RouteFrom(2, prefix); got == nil || got.FromPeer != 2 || got.Path.Hops() != 2 {
		t.Errorf("RouteFrom(2) = %+v", got)
	}
	if got := tbl.RouteFrom(3, prefix); got == nil || got.Path.Hops() != 3 {
		t.Errorf("RouteFrom(3) = %+v", got)
	}
	if got := tbl.RouteFrom(astypes.ASNNone, prefix); got == nil || got.FromPeer != astypes.ASNNone {
		t.Errorf("RouteFrom(ASNNone) = %+v", got)
	}
	if got := tbl.RouteFrom(9, prefix); got != nil {
		t.Errorf("RouteFrom(unknown peer) = %+v, want nil", got)
	}
	other := astypes.MustPrefix(0x0a000000, 8)
	if got := tbl.RouteFrom(2, other); got != nil {
		t.Errorf("RouteFrom(unknown prefix) = %+v, want nil", got)
	}
}

// TestChangeReason: the Old/New pair of every change names its kind
// (installed, replaced, withdrawn), and a no-op reselect changes
// nothing.
func TestChangeReason(t *testing.T) {
	tbl := NewTable()

	ch := tbl.Update(route(2, 2, 4))
	if !ch.Changed || ch.Old != nil || ch.New == nil || ch.New.FromPeer != 2 {
		t.Errorf("first install: %+v", ch)
	}
	// A strictly worse route from another peer changes nothing.
	ch = tbl.Update(route(3, 3, 5, 4))
	if ch.Changed || ch.Old != ch.New || ch.New.FromPeer != 2 {
		t.Errorf("worse route: %+v", ch)
	}
	// A strictly better route replaces the best.
	better := route(9, 9)
	better.LocalPref = 200
	ch = tbl.Update(better)
	if !ch.Changed || ch.Old == nil || ch.Old.FromPeer != 2 || ch.New == nil || ch.New.FromPeer != 9 {
		t.Errorf("better route: %+v", ch)
	}
	// Withdrawing the best falls back to a remaining route.
	ch = tbl.Withdraw(9, prefix)
	if !ch.Changed || ch.Old == nil || ch.Old.FromPeer != 9 || ch.New == nil || ch.New.FromPeer != 2 {
		t.Errorf("fallback: %+v", ch)
	}
	// Withdrawing everything empties the prefix.
	tbl.Withdraw(3, prefix)
	ch = tbl.Withdraw(2, prefix)
	if !ch.Changed || ch.Old == nil || ch.New != nil {
		t.Errorf("final withdraw: %+v", ch)
	}
}

// TestAggregatorIDChangeIsAChange: a re-announcement that differs only
// in AGGREGATOR's router ID is a new route (the speaker exports the
// field), so it replaces the best route and reports a change.
func TestAggregatorIDChangeIsAChange(t *testing.T) {
	tbl := NewTable()
	r := route(2, 2, 4)
	r.AtomicAggregate, r.AggregatorAS, r.AggregatorID = true, 4, 0x0a000001
	tbl.Update(r)
	r.AggregatorID = 0x0a000002
	ch := tbl.Update(r)
	if !ch.Changed {
		t.Error("AGGREGATOR ID change reported no change")
	}
	if got := tbl.Best(prefix).AggregatorID; got != 0x0a000002 {
		t.Errorf("best AggregatorID = %#x, want 0xa000002", got)
	}
}
