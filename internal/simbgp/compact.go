package simbgp

// The compact routing state: instead of a rib.Table, per-slot maps and
// per-prefix maps on every node, the network keeps one flat array per
// registered prefix, indexed by a global adjacency-slot number. Node i
// owns the slot range [slotBase[i], slotBase[i]+deg(i)]: one slot per
// neighbor in ascending peer order plus a final local slot for the
// node's own originated route. All route attributes are interned
// (intern.go), so an adjacency entry is two uint32s and the decision
// process runs on flat memory with no pointers — the layout that lets a
// 70k-AS network fit in a few MB per prefix instead of a rib.Table per
// node.

import (
	"sort"

	"repro/internal/astypes"
	"repro/internal/rib"
	"repro/internal/trace"
	"repro/internal/wire"
)

// pfxState is the whole network's routing state for one prefix.
type pfxState struct {
	prefix astypes.Prefix
	// adjPath/adjComm are the received path and community attribute per
	// global slot (0 = no route); adjEff lazily caches the interned
	// effective MOAS list of the slot's route for the detection scan.
	adjPath []uint32
	adjComm []uint32
	adjEff  []uint32
	// bestPlus is, per node, the global slot of the selected best route
	// plus one (0 = no route).
	bestPlus []int32
	// adv is the advertised bitset: bit g set when the route was last
	// advertised (not withdrawn) to the neighbor owning slot g.
	adv []uint64
	// resolved caches, per node, the interned outcome of conflict
	// resolution (the "DNS answer"); 0 = not investigated.
	resolved []uint32
}

func (st *pfxState) advBit(g int32) bool { return st.adv[g>>6]&(1<<(uint32(g)&63)) != 0 }
func (st *pfxState) setAdv(g int32)      { st.adv[g>>6] |= 1 << (uint32(g) & 63) }
func (st *pfxState) clrAdv(g int32)      { st.adv[g>>6] &^= 1 << (uint32(g) & 63) }

// stateOf returns the prefix's state, if registered. The returned
// pointer is invalidated by the next registerPrefix call.
func (n *Network) stateOf(p astypes.Prefix) (*pfxState, bool) {
	if id, ok := n.pfxID[p]; ok {
		return &n.pfx[id], true
	}
	return nil, false
}

// registerPrefix returns the prefix's state, creating it on first
// sight. Registration is amortized: each distinct prefix allocates its
// flat arrays exactly once per network lifetime (Reset clears them in
// place).
func (n *Network) registerPrefix(p astypes.Prefix) *pfxState {
	if id, ok := n.pfxID[p]; ok {
		return &n.pfx[id]
	}
	id := int32(len(n.pfx))
	n.pfx = append(n.pfx, pfxState{
		prefix:   p,
		adjPath:  make([]uint32, n.totalSlots),
		adjComm:  make([]uint32, n.totalSlots),
		adjEff:   make([]uint32, n.totalSlots),
		bestPlus: make([]int32, len(n.nodes)),
		adv:      make([]uint64, (int(n.totalSlots)+63)/64),
		resolved: make([]uint32, len(n.nodes)),
	})
	n.pfxID[p] = id
	// Keep ids iterable in ascending prefix order, the order rib.Table
	// emitted DropPeer changes and BestRoutes in.
	pos := sort.Search(len(n.pfxSorted), func(k int) bool {
		return n.pfx[n.pfxSorted[k]].prefix.Compare(p) >= 0
	})
	n.pfxSorted = append(n.pfxSorted, 0)
	copy(n.pfxSorted[pos+1:], n.pfxSorted[pos:])
	n.pfxSorted[pos] = id
	return &n.pfx[id]
}

// localSlot returns the node's local-route slot.
func (n *Network) localSlot(nd *Node) int32 {
	return n.slotBase[nd.idx] + int32(len(nd.neighbors))
}

// slotPeer returns the peer a global slot of nd belongs to (ASNNone for
// the local slot).
func (n *Network) slotPeer(nd *Node, g int32) astypes.ASN {
	s := g - n.slotBase[nd.idx]
	if int(s) == len(nd.neighbors) {
		return astypes.ASNNone
	}
	return nd.neighbors[s]
}

// updateSlot installs a route into slot g of nd and reselects,
// reporting whether the node's best route changed (by value, matching
// rib's Change.Changed semantics: re-announcing an identical route is
// not a change).
func (n *Network) updateSlot(nd *Node, st *pfxState, g int32, pathID, commID, effID uint32) bool {
	prevPath, prevComm := st.adjPath[g], st.adjComm[g]
	if prevPath == pathID && prevComm == commID {
		st.adjEff[g] = effID
		return false
	}
	st.adjPath[g], st.adjComm[g], st.adjEff[g] = pathID, commID, effID
	return n.reselect(nd, st, g, prevPath, prevComm)
}

// clearSlot removes the route in slot g (withdraw / route flush) and
// reselects. Clearing an empty slot is a no-op.
func (n *Network) clearSlot(nd *Node, st *pfxState, g int32) bool {
	prevPath, prevComm := st.adjPath[g], st.adjComm[g]
	if prevPath == 0 {
		return false
	}
	st.adjPath[g], st.adjComm[g], st.adjEff[g] = 0, 0, 0
	return n.reselect(nd, st, g, prevPath, prevComm)
}

// reselect recomputes nd's best route for the prefix after slot g
// changed from (prevPath, prevComm). A change of best route is traced
// as the speaker traces it: installed, replaced or withdrawn, naming
// the new best route's neighbor.
func (n *Network) reselect(nd *Node, st *pfxState, g int32, prevPath, prevComm uint32) bool {
	i := nd.idx
	base := n.slotBase[i]
	deg := int32(len(nd.neighbors))
	oldPlus := st.bestPlus[i]
	cand := int32(-1)
	if s := n.paths.bestSlot(nd.neighbors, st.adjPath[base:base+deg+1], oldPlus-1-base); s >= 0 {
		cand = base + s
	}
	st.bestPlus[i] = cand + 1

	var oldPath, oldComm, newPath, newComm uint32
	if os := oldPlus - 1; os == g {
		oldPath, oldComm = prevPath, prevComm
	} else if os >= 0 {
		oldPath, oldComm = st.adjPath[os], st.adjComm[os]
	}
	if cand >= 0 {
		newPath, newComm = st.adjPath[cand], st.adjComm[cand]
	}
	if oldPlus == cand+1 && oldPath == newPath && oldComm == newComm {
		return false
	}
	if n.tracing() {
		detail, peer, origin := trace.DetailWithdrawn, astypes.ASNNone, astypes.ASNNone
		if cand >= 0 {
			detail, peer, origin = trace.DetailReplaced, n.slotPeer(nd, cand), n.paths.origin[newPath]
			if oldPlus == 0 {
				detail = trace.DetailInstalled
			}
		}
		n.record(trace.KindRIB, detail, nd.asn, peer, st.prefix, origin)
	}
	return true
}

// bestSlot runs rib's decision process over one node's slots for a
// prefix: adj holds the path id per slot, one per neighbor in
// ascending peer order and the node's own route last (0: none), and
// incumbent is the slot of the current best route (negative: none). It
// returns the winning slot, or -1 when no slot holds a route. Under the
// simulator's constant LOCAL_PREF and ORIGIN code that is the fewest
// AS-path hops, then the lowest neighbor AS (the node's own route
// first), holding the incumbent on a hop-count tie.
func (t *pathTab) bestSlot(neighbors []astypes.ASN, adj []uint32, incumbent int32) int32 {
	hops := t.hops
	var sel rib.Selection
	cand := int32(-1)
	for s, peer := range neighbors {
		if p := adj[s]; p != 0 && sel.Offer(rank(hops[p], peer)) {
			cand = int32(s)
		}
	}
	own := int32(len(neighbors))
	if p := adj[own]; p != 0 && sel.Offer(rank(hops[p], astypes.ASNNone)) {
		cand = own
	}
	if incumbent >= 0 && incumbent != cand {
		peer := astypes.ASNNone
		if incumbent < own {
			peer = neighbors[incumbent]
		}
		if p := adj[incumbent]; p != 0 && sel.Hold(rank(hops[p], peer)) {
			cand = incumbent
		}
	}
	return cand
}

// rank ranks a simulated route: constant LOCAL_PREF and ORIGIN code.
func rank(hops uint32, peer astypes.ASN) rib.Rank {
	return rib.NewRank(rib.DefaultLocalPref, hops, wire.OriginIGP, peer)
}

// heldEff returns the (lazily cached) effective MOAS-list id of the
// route in slot g, or 0 when the slot is empty or the route's list is
// unresolvable.
func (n *Network) heldEff(st *pfxState, g int32) uint32 {
	if e := st.adjEff[g]; e != 0 {
		return e
	}
	p := st.adjPath[g]
	if p == 0 {
		return 0
	}
	e := effectiveID(n.comms, n.lists, st.adjComm[g], n.paths.origin[p])
	st.adjEff[g] = e
	return e
}
