// Package rib implements the live speaker's (internal/speaker) Routing
// Information Bases (per-peer Adj-RIB-In tables and the Loc-RIB of
// selected best routes) and the route decision process it shares with
// the event-driven simulator (internal/simbgp): the tie-breaking rules
// of RFC 4271 §9.1 restricted to the attributes this system models
// (LOCAL_PREF, AS-path length, ORIGIN code, neighbor AS), written once
// as Rank and Selection.
package rib

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// Route is one candidate path to a prefix as learned from a peer (or
// originated locally with FromPeer == ASNNone).
type Route struct {
	Prefix      astypes.Prefix
	Path        astypes.ASPath
	Origin      wire.OriginCode
	NextHop     uint32
	LocalPref   uint32
	Communities []astypes.Community
	FromPeer    astypes.ASN
	// Aggregation markers (RFC 4271 §5.1.6/5.1.7), carried so they
	// survive re-advertisement.
	AtomicAggregate bool
	AggregatorAS    astypes.ASN
	AggregatorID    uint32
	// Unknown holds optional transitive attributes this implementation
	// does not interpret; they transit verbatim (among them the
	// dedicated MOAS-list attribute, core.ListAttrCode).
	Unknown []wire.UnknownAttr
}

// DefaultLocalPref is assigned to routes without an explicit LOCAL_PREF.
const DefaultLocalPref uint32 = 100

// OriginAS returns the route's origin AS (last AS of the path), or the
// route's own FromPeer if the path is empty (a locally originated route
// carries its originator in the path, so this is a fallback only).
func (r *Route) OriginAS() astypes.ASN {
	if origin, ok := r.Path.Origin(); ok {
		return origin
	}
	return r.FromPeer
}

// Clone deep-copies the route so callers can mutate path/communities
// without aliasing the RIB's stored state.
func (r *Route) Clone() *Route {
	cp := *r
	cp.Path = r.Path.Clone()
	if len(r.Communities) > 0 {
		cp.Communities = append([]astypes.Community(nil), r.Communities...)
	}
	cp.Unknown = wire.CloneUnknownAttrs(r.Unknown)
	return &cp
}

// Rank is a route's place in the decision process: its LOCAL_PREF,
// AS-path hop count, ORIGIN code and the neighbor AS it was learned
// from. The live table ranks its *Route values with it, and the
// simulator ranks its interned slots (with constant LOCAL_PREF and
// ORIGIN), so both select routes by one rule. The first three
// attributes pack into one integer, higher preferred, so Better is one
// comparison unless they tie (the simulator ranks every route of every
// delivery). The zero Rank is no route: every route ranks above it.
type Rank struct {
	// attrs holds, from the top: LOCAL_PREF (32 bits), maxRankHops less
	// the hop count (23), the complemented ORIGIN code (8), and a set
	// bit that keeps every route above the zero Rank.
	attrs uint64
	peer  astypes.ASN
}

// maxRankHops is the longest AS path a Rank orders: far more hops than
// a 4096-octet UPDATE can carry or a simulated topology can span.
const maxRankHops = 1<<23 - 1

// NewRank ranks a route. hops must not exceed 2^23-1. peer is ASNNone
// for a locally originated route, which so wins a full attribute tie.
func NewRank(localPref, hops uint32, origin wire.OriginCode, peer astypes.ASN) Rank {
	return Rank{
		attrs: uint64(localPref)<<32 | uint64(maxRankHops-hops)<<9 | uint64(^origin)<<1 | 1,
		peer:  peer,
	}
}

// Better reports whether a is preferred over b:
//
//  1. higher LOCAL_PREF
//  2. shorter AS path (AS_SET counts 1)
//  3. lower ORIGIN code (IGP < EGP < INCOMPLETE)
//  4. lower neighbor AS number (deterministic tie-break standing in for
//     the router-ID comparison, which an AS-level model lacks)
//
// Rule 4 is a last resort: Selection.Hold keeps the incumbent best
// route on a tie of rules 1-3 (prefer-oldest).
func (a Rank) Better(b Rank) bool {
	return a.attrs > b.attrs || a.attrs == b.attrs && a.peer < b.peer
}

// ties reports whether a and b are equal on every rule but the
// neighbor tie-break.
func (a Rank) ties(b Rank) bool { return a.attrs == b.attrs }

// rank returns the route's place in the decision process.
func (r *Route) rank() Rank {
	return NewRank(r.LocalPref, uint32(min(r.Path.Hops(), maxRankHops)), r.Origin, r.FromPeer)
}

// Selection is the decision process as a fold over one prefix's held
// routes; the zero Selection has seen none. Offer each candidate, in
// any order, then Hold the incumbent best route if its source still
// holds one. The caller keeps its own handle on each route; Offer and
// Hold report whether the route they were given is now the winner.
type Selection struct {
	best Rank
}

// Offer competes a candidate against the winner so far and reports
// whether it wins. The first offer always wins.
func (s *Selection) Offer(r Rank) bool {
	if !r.Better(s.best) {
		return false
	}
	s.best = r
	return true
}

// Hold applies prefer-oldest: the incumbent best route's current
// version, once offered, is kept when it ties the winner on every rule
// but the neighbor tie-break. This models the operational stability
// rule that a router does not churn its best path (and so does not
// move traffic to a hijacker) unless the new route is strictly
// preferred (RFC 4271 §9.1.2.2 step (e) practice).
func (s *Selection) Hold(incumbent Rank) bool {
	if !incumbent.ties(s.best) {
		return false
	}
	s.best = incumbent
	return true
}

// Table is the full RIB state of one BGP speaker: the per-peer
// Adj-RIB-In, the locally originated routes, and the Loc-RIB of
// selected best routes. It is safe for concurrent use. Every write
// takes the one lock; the speaker serializes its writes under its own
// lock anyway, so the table's lock only orders them against readers
// (the MIB endpoint, tests) that do not hold the speaker's.
//
// Published routes are immutable: once a *Route enters the table it is
// never modified, so the read accessors (Best, BestRoutes, RoutesFrom)
// hand out shared pointers without copying. Callers must treat returned
// routes as read-only and Clone any route they intend to mutate. The
// mutating entry points (Update, Originate) defensively Clone their
// argument to uphold that invariant; the ...Owned variants skip the
// copy when the caller transfers ownership of a freshly built route.
type Table struct {
	mu sync.RWMutex
	// adjIn[peer][prefix] is the route most recently advertised by peer.
	adjIn map[astypes.ASN]map[astypes.Prefix]*Route
	// local[prefix] holds locally originated routes; they compete in the
	// decision process like any learned route.
	local map[astypes.Prefix]*Route
	// best[prefix] is the Loc-RIB: the selected route per prefix.
	best map[astypes.Prefix]*Route
}

// NewTable returns an empty RIB.
func NewTable() *Table {
	return &Table{
		adjIn: make(map[astypes.ASN]map[astypes.Prefix]*Route),
		local: make(map[astypes.Prefix]*Route),
		best:  make(map[astypes.Prefix]*Route),
	}
}

// Change describes the result of applying one route event: whether the
// best route for the prefix changed, and the old and new selections (nil
// means no route). A change with a nil Old installed a route, one with
// a nil New withdrew the last, and any other replaced the selection.
type Change struct {
	Prefix   astypes.Prefix
	Old, New *Route
	Changed  bool
}

// Update installs (or replaces) the route from route.FromPeer for
// route.Prefix and re-runs the decision process for that prefix. A copy
// of the route is stored, so the caller may keep mutating its argument.
func (t *Table) Update(route *Route) Change {
	return t.UpdateOwned(route.Clone())
}

// UpdateOwned is Update without the defensive copy: ownership of route
// (path, communities, unknown attributes and all) transfers to the
// table, and the caller must not retain or mutate it afterwards. Use it
// when the route was freshly built for this call.
func (t *Table) UpdateOwned(route *Route) Change {
	t.mu.Lock()
	defer t.mu.Unlock()
	peerTable, ok := t.adjIn[route.FromPeer]
	if !ok {
		peerTable = make(map[astypes.Prefix]*Route)
		t.adjIn[route.FromPeer] = peerTable
	}
	peerTable[route.Prefix] = route
	return t.reselectLocked(route.Prefix)
}

// Withdraw removes the route previously advertised by peer for prefix,
// if any, and re-runs the decision process.
func (t *Table) Withdraw(peer astypes.ASN, prefix astypes.Prefix) Change {
	t.mu.Lock()
	defer t.mu.Unlock()
	if peerTable, ok := t.adjIn[peer]; ok {
		delete(peerTable, prefix)
		if len(peerTable) == 0 {
			delete(t.adjIn, peer)
		}
	}
	return t.reselectLocked(prefix)
}

// Originate installs a locally originated route (FromPeer forced to
// ASNNone) and re-runs the decision process for its prefix. A copy of
// the route is stored.
func (t *Table) Originate(route *Route) Change {
	return t.OriginateOwned(route.Clone())
}

// OriginateOwned is Originate without the defensive copy; the same
// ownership-transfer contract as UpdateOwned applies.
func (t *Table) OriginateOwned(route *Route) Change {
	route.FromPeer = astypes.ASNNone
	t.mu.Lock()
	defer t.mu.Unlock()
	t.local[route.Prefix] = route
	return t.reselectLocked(route.Prefix)
}

// WithdrawLocal removes a locally originated route.
func (t *Table) WithdrawLocal(prefix astypes.Prefix) Change {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.local, prefix)
	return t.reselectLocked(prefix)
}

// DropPeer removes every route learned from peer (session teardown),
// returning a change record per affected prefix in deterministic prefix
// order.
func (t *Table) DropPeer(peer astypes.ASN) []Change {
	t.mu.Lock()
	defer t.mu.Unlock()
	peerTable := t.adjIn[peer]
	delete(t.adjIn, peer)
	var changes []Change
	for p := range peerTable {
		if ch := t.reselectLocked(p); ch.Changed {
			changes = append(changes, ch)
		}
	}
	sort.Slice(changes, func(i, j int) bool {
		return changes[i].Prefix.Compare(changes[j].Prefix) < 0
	})
	return changes
}

// reselectLocked runs the decision process for prefix over every held
// route, the local one included, and installs the winner.
func (t *Table) reselectLocked(prefix astypes.Prefix) Change {
	old := t.best[prefix]
	var sel Selection
	var newBest *Route
	if lr, ok := t.local[prefix]; ok && sel.Offer(lr.rank()) {
		newBest = lr
	}
	for _, peerTable := range t.adjIn {
		if r, ok := peerTable[prefix]; ok && sel.Offer(r.rank()) {
			newBest = r
		}
	}
	if old != nil && newBest != nil && old.FromPeer != newBest.FromPeer {
		if cur := t.routeFromLocked(old.FromPeer, prefix); cur != nil && sel.Hold(cur.rank()) {
			newBest = cur
		}
	}
	ch := Change{Prefix: prefix, Old: old, New: newBest}
	if sameRoute(old, newBest) {
		return ch
	}
	ch.Changed = true
	if newBest == nil {
		delete(t.best, prefix)
	} else {
		t.best[prefix] = newBest
	}
	return ch
}

// routeFromLocked returns the live route for prefix from the given
// source (ASNNone selects the local table).
func (t *Table) routeFromLocked(peer astypes.ASN, prefix astypes.Prefix) *Route {
	if peer == astypes.ASNNone {
		return t.local[prefix]
	}
	return t.adjIn[peer][prefix]
}

func sameRoute(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.FromPeer == b.FromPeer &&
		a.Prefix == b.Prefix &&
		a.Origin == b.Origin &&
		a.LocalPref == b.LocalPref &&
		a.NextHop == b.NextHop &&
		a.AtomicAggregate == b.AtomicAggregate &&
		a.AggregatorAS == b.AggregatorAS &&
		a.AggregatorID == b.AggregatorID &&
		a.Path.Equal(b.Path) &&
		sameCommunities(a.Communities, b.Communities) &&
		sameUnknown(a.Unknown, b.Unknown)
}

func sameUnknown(a, b []wire.UnknownAttr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Flags != b[i].Flags || a[i].Code != b[i].Code ||
			string(a[i].Value) != string(b[i].Value) {
			return false
		}
	}
	return true
}

func sameCommunities(a, b []astypes.Community) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Best returns the selected route for prefix, or nil. The route is
// shared, immutable table state: treat it as read-only and Clone before
// mutating.
func (t *Table) Best(prefix astypes.Prefix) *Route {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.best[prefix]
}

// BestRoutes returns the Loc-RIB in deterministic prefix order. The
// routes are shared, immutable table state (see Best).
func (t *Table) BestRoutes() []*Route {
	t.mu.RLock()
	out := make([]*Route, 0, len(t.best))
	for _, r := range t.best {
		out = append(out, r)
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// RoutesFrom returns all routes currently held in peer's Adj-RIB-In, in
// deterministic prefix order. Passing ASNNone returns the locally
// originated routes. The routes are shared, immutable table state (see
// Best).
func (t *Table) RoutesFrom(peer astypes.ASN) []*Route {
	t.mu.RLock()
	peerTable := t.adjIn[peer]
	if peer == astypes.ASNNone {
		peerTable = t.local
	}
	out := make([]*Route, 0, len(peerTable))
	for _, r := range peerTable {
		out = append(out, r)
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// RouteFrom returns the route currently held for prefix from the given
// source (ASNNone selects the locally originated route), or nil: two
// map lookups, where RoutesFrom copies and sorts the peer's whole
// Adj-RIB-In.
func (t *Table) RouteFrom(peer astypes.ASN, prefix astypes.Prefix) *Route {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.routeFromLocked(peer, prefix)
}

// Len returns the number of prefixes with a selected best route.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.best)
}

// String summarizes the Loc-RIB for debugging.
func (t *Table) String() string {
	routes := t.BestRoutes()
	s := fmt.Sprintf("Loc-RIB (%d prefixes):\n", len(routes))
	for _, r := range routes {
		s += fmt.Sprintf("  %s via AS%s path [%s]\n", r.Prefix, r.FromPeer, r.Path)
	}
	return s
}
