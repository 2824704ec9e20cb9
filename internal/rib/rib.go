// Package rib implements the BGP Routing Information Bases and the
// route decision process shared by the live speaker (internal/speaker)
// and the event-driven simulator (internal/simbgp): per-peer Adj-RIB-In
// tables, the Loc-RIB of selected best routes, and the tie-breaking
// rules of RFC 4271 §9.1 restricted to the attributes this system
// models (LOCAL_PREF, AS-path length, ORIGIN code, neighbor AS).
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

// Better reports whether route a is preferred over b by the decision
// process. Either argument may be nil (a nil route always loses). The
// order of rules follows RFC 4271 §9.1.2.2 for the attributes modelled:
//
//  1. higher LOCAL_PREF
//  2. shorter AS path (AS_SET counts 1)
//  3. lower ORIGIN code (IGP < EGP < INCOMPLETE)
//  4. lower neighbor AS number (deterministic tie-break standing in for
//     the router-ID comparison, which an AS-level model lacks)
//
// Rule 4 is a last resort: reselection prefers the incumbent best route
// on an attribute tie (prefer-oldest, RFC 4271 §9.1.2.2 step (e)
// practice), which Compare exposes.
func Better(a, b *Route) bool {
	switch Compare(a, b) {
	case 1:
		return true
	case -1:
		return false
	default:
		return a != nil && b != nil && a.FromPeer < b.FromPeer
	}
}

// Compare ranks two routes on attributes alone: 1 if a is strictly
// preferred, -1 if b is, 0 on a full attribute tie. nil loses to
// non-nil; two nils tie.
func Compare(a, b *Route) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return -1
	case b == nil:
		return 1
	}
	if a.LocalPref != b.LocalPref {
		if a.LocalPref > b.LocalPref {
			return 1
		}
		return -1
	}
	if ah, bh := a.Path.Hops(), b.Path.Hops(); ah != bh {
		if ah < bh {
			return 1
		}
		return -1
	}
	if a.Origin != b.Origin {
		if a.Origin < b.Origin {
			return 1
		}
		return -1
	}
	return 0
}

// numShards partitions the table by prefix hash so concurrent speakers
// (one goroutine per peer) contend on independent locks. All state for
// one prefix — every peer's Adj-RIB-In entry, the local route, and the
// Loc-RIB selection — lives in a single shard, so the decision process
// never crosses a shard boundary. Must be a power of two.
const numShards = 16

// tableShard holds the RIB state for the prefixes hashing to it.
type tableShard struct {
	mu sync.RWMutex
	// adjIn[peer][prefix] is the route most recently advertised by peer.
	// Guarded by mu.
	adjIn map[astypes.ASN]map[astypes.Prefix]*Route
	// local[prefix] holds locally originated routes; they compete in the
	// decision process like any learned route. Guarded by mu.
	local map[astypes.Prefix]*Route
	// best[prefix] is the Loc-RIB: the selected route per prefix.
	// Guarded by mu.
	best map[astypes.Prefix]*Route
}

// Table is the full RIB state of one BGP speaker. It is safe for
// concurrent use.
//
// Published routes are immutable: once a *Route enters the table it is
// never modified, so the read accessors (Best, BestRoutes, RoutesFrom)
// hand out shared pointers without copying. Callers must treat returned
// routes as read-only and Clone any route they intend to mutate. The
// mutating entry points (Update, Originate) defensively Clone their
// argument to uphold that invariant; the ...Owned variants skip the
// copy when the caller transfers ownership of a freshly built route.
type Table struct {
	shards [numShards]tableShard
}

// NewTable returns an empty RIB.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.adjIn = make(map[astypes.ASN]map[astypes.Prefix]*Route)
		s.local = make(map[astypes.Prefix]*Route)
		s.best = make(map[astypes.Prefix]*Route)
		s.mu.Unlock()
	}
	return t
}

// shard maps a prefix to its shard. Fibonacci-style multiplicative
// hashing spreads the sequential prefix blocks that simulations and
// test topologies favor.
func (t *Table) shard(p astypes.Prefix) *tableShard {
	h := p.Addr*2654435761 + uint32(p.Len)*2246822519
	h ^= h >> 16
	return &t.shards[h&(numShards-1)]
}

// Reason classifies why a Change changed, for trace events and debug
// output; it adds nothing the Old/New pair doesn't imply, but saves
// every consumer re-deriving it.
type Reason uint8

// Change reasons.
const (
	// ReasonNone: the decision process ran but the best route held.
	ReasonNone Reason = iota
	// ReasonInstalled: a prefix with no best route gained one.
	ReasonInstalled
	// ReasonReplaced: the best route switched to a different selection.
	ReasonReplaced
	// ReasonWithdrawn: the last route for the prefix went away.
	ReasonWithdrawn
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonInstalled:
		return "installed"
	case ReasonReplaced:
		return "replaced"
	case ReasonWithdrawn:
		return "withdrawn"
	default:
		return "unknown"
	}
}

// Change describes the result of applying one route event: whether the
// best route for the prefix changed, and the old and new selections (nil
// means no route).
type Change struct {
	Prefix   astypes.Prefix
	Old, New *Route
	Changed  bool
	// Reason is ReasonNone when Changed is false, else the flavour of
	// the change.
	Reason Reason
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
	s := t.shard(route.Prefix)
	s.mu.Lock()
	defer s.mu.Unlock()
	peerTable, ok := s.adjIn[route.FromPeer]
	if !ok {
		peerTable = make(map[astypes.Prefix]*Route)
		s.adjIn[route.FromPeer] = peerTable
	}
	peerTable[route.Prefix] = route
	return s.reselectLocked(route.Prefix)
}

// Withdraw removes the route previously advertised by peer for prefix,
// if any, and re-runs the decision process.
func (t *Table) Withdraw(peer astypes.ASN, prefix astypes.Prefix) Change {
	s := t.shard(prefix)
	s.mu.Lock()
	defer s.mu.Unlock()
	if peerTable, ok := s.adjIn[peer]; ok {
		delete(peerTable, prefix)
		if len(peerTable) == 0 {
			delete(s.adjIn, peer)
		}
	}
	return s.reselectLocked(prefix)
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
	s := t.shard(route.Prefix)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.local[route.Prefix] = route
	return s.reselectLocked(route.Prefix)
}

// WithdrawLocal removes a locally originated route.
func (t *Table) WithdrawLocal(prefix astypes.Prefix) Change {
	s := t.shard(prefix)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.local, prefix)
	return s.reselectLocked(prefix)
}

// DropPeer removes every route learned from peer (session teardown),
// returning a change record per affected prefix in deterministic prefix
// order. Shards are processed one at a time; concurrent writers to
// other shards proceed in parallel.
func (t *Table) DropPeer(peer astypes.ASN) []Change {
	var changes []Change
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		peerTable, ok := s.adjIn[peer]
		if !ok {
			s.mu.Unlock()
			continue
		}
		prefixes := make([]astypes.Prefix, 0, len(peerTable))
		for p := range peerTable {
			prefixes = append(prefixes, p)
		}
		delete(s.adjIn, peer)
		for _, p := range prefixes {
			if ch := s.reselectLocked(p); ch.Changed {
				changes = append(changes, ch)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(changes, func(i, j int) bool {
		return changes[i].Prefix.Compare(changes[j].Prefix) < 0
	})
	return changes
}

func (s *tableShard) reselectLocked(prefix astypes.Prefix) Change {
	old := s.best[prefix]
	var newBest *Route
	if lr, ok := s.local[prefix]; ok {
		newBest = lr
	}
	for _, peerTable := range s.adjIn {
		if r, ok := peerTable[prefix]; ok && Better(r, newBest) {
			newBest = r
		}
	}
	// Prefer-oldest: if the incumbent best still exists (same source)
	// and ties the scan winner on attributes, keep it. This models the
	// operational stability rule that a router does not churn its best
	// path — and so does not move traffic to a hijacker — unless the new
	// route is strictly preferred.
	if old != nil && newBest != nil && old.FromPeer != newBest.FromPeer {
		if cur := s.routeFromLocked(old.FromPeer, prefix); cur != nil && Compare(cur, newBest) == 0 {
			newBest = cur
		}
	}
	ch := Change{Prefix: prefix, Old: old, New: newBest}
	if sameRoute(old, newBest) {
		return ch
	}
	ch.Changed = true
	switch {
	case old == nil:
		ch.Reason = ReasonInstalled
	case newBest == nil:
		ch.Reason = ReasonWithdrawn
	default:
		ch.Reason = ReasonReplaced
	}
	if newBest == nil {
		delete(s.best, prefix)
	} else {
		s.best[prefix] = newBest
	}
	return ch
}

// routeFromLocked returns the live route for prefix from the given
// source (ASNNone selects the local table).
func (s *tableShard) routeFromLocked(peer astypes.ASN, prefix astypes.Prefix) *Route {
	if peer == astypes.ASNNone {
		return s.local[prefix]
	}
	return s.adjIn[peer][prefix]
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
	s := t.shard(prefix)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.best[prefix]
}

// BestRoutes returns the Loc-RIB in deterministic prefix order. The
// routes are shared, immutable table state (see Best). Each shard is
// snapshotted under its own lock; under concurrent writers the slice is
// per-shard consistent, not a single atomic cut of the whole table.
func (t *Table) BestRoutes() []*Route {
	out := make([]*Route, 0, t.Len())
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for _, r := range s.best {
			out = append(out, r)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// RoutesFrom returns all routes currently held in peer's Adj-RIB-In, in
// deterministic prefix order. Passing ASNNone returns the locally
// originated routes. The routes are shared, immutable table state (see
// Best), with the same per-shard snapshot semantics as BestRoutes.
func (t *Table) RoutesFrom(peer astypes.ASN) []*Route {
	var out []*Route
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		peerTable := s.adjIn[peer]
		if peer == astypes.ASNNone {
			peerTable = s.local
		}
		for _, r := range peerTable {
			out = append(out, r)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// RouteFrom returns the route currently held for prefix from the given
// source (ASNNone selects the locally originated route), or nil. It
// touches exactly one shard — callers that need one peer's route for
// one prefix should prefer it over scanning RoutesFrom.
func (t *Table) RouteFrom(peer astypes.ASN, prefix astypes.Prefix) *Route {
	s := t.shard(prefix)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.routeFromLocked(peer, prefix)
}

// Clear empties the table in place, retaining the shard maps (and the
// per-peer Adj-RIB-In buckets) so a pooled simulation node can rerun
// without re-growing them.
func (t *Table) Clear() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, peerTable := range s.adjIn {
			clear(peerTable)
		}
		clear(s.local)
		clear(s.best)
		s.mu.Unlock()
	}
}

// Len returns the number of prefixes with a selected best route.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.best)
		s.mu.RUnlock()
	}
	return n
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
