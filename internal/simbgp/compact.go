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
// changed from (prevPath, prevComm), replicating the rib.Table decision
// process under the simulator's constant LOCAL_PREF and origin code:
// fewest AS-path hops, then lowest FromPeer (the local route's
// ASNNone sorting first), with rib's prefer-oldest stability rule — the
// incumbent best is kept when its peer's current route ties the scan
// winner on attributes.
func (n *Network) reselect(nd *Node, st *pfxState, g int32, prevPath, prevComm uint32) bool {
	i := nd.idx
	base := n.slotBase[i]
	deg := int32(len(nd.neighbors))
	local := base + deg

	oldPlus := st.bestPlus[i]
	var oldPath, oldComm uint32
	if oldPlus != 0 {
		if os := oldPlus - 1; os == g {
			oldPath, oldComm = prevPath, prevComm
		} else {
			oldPath, oldComm = st.adjPath[os], st.adjComm[os]
		}
	}

	// Scan the local slot first (lowest FromPeer), then neighbors in
	// ascending peer order, keeping strict improvements only: the
	// winner is the (hops, FromPeer) minimum.
	cand := int32(-1)
	var candHops uint32
	if p := st.adjPath[local]; p != 0 {
		cand, candHops = local, n.paths.hops[p]
	}
	for s := int32(0); s < deg; s++ {
		p := st.adjPath[base+s]
		if p == 0 {
			continue
		}
		if h := n.paths.hops[p]; cand < 0 || h < candHops {
			cand, candHops = base+s, h
		}
	}

	// Prefer-oldest: hold on to the incumbent peer's current route when
	// it ties the scan winner, so best paths — and traffic — do not
	// churn to a new peer without strict improvement.
	if oldPlus != 0 && cand >= 0 && oldPlus-1 != cand {
		if op := st.adjPath[oldPlus-1]; op != 0 && n.paths.hops[op] == candHops {
			cand = oldPlus - 1
		}
	}

	var newPath, newComm uint32
	if cand >= 0 {
		newPath, newComm = st.adjPath[cand], st.adjComm[cand]
	}
	st.bestPlus[i] = cand + 1
	return oldPlus != cand+1 || oldPath != newPath || oldComm != newComm
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
