// Package simbgp is the AS-level BGP simulation model used by the
// paper's evaluation (§5): one BGP speaker per AS on an undirected
// peering topology, driven by the discrete-event engine in internal/sim.
// It plays the role of the authors' modified SSFnet simulator.
//
// Each node runs the standard path-vector machinery (loop detection,
// shortest-AS-path decision, best-route propagation to all peers),
// selecting routes through internal/rib's decision process (rib.Rank
// and rib.Selection) — the live daemons keep their rib.Table, the
// simulator trades it for the compact layout below. Nodes optionally
// run the paper's MOAS detection: they extract the effective MOAS list
// of every announcement (explicit communities or the implicit
// single-origin rule), raise an alarm on any inconsistency, resolve the
// conflict through a core.Resolver (the stand-in for the DNS MOASRR
// lookup of §4.4), and then refuse to
// install or propagate routes from origins outside the resolved valid
// set — "they stop the further propagation of a false route" (§5.2).
//
// Layout is optimized for internet scale (§5 runs the paper's curves on
// power-law topologies up to 70k ASes) and for the experiment harness,
// which runs hundreds of simulations per sweep: nodes live in a dense
// slice indexed by a per-topology ASN→index table (maps only at the API
// boundary); AS paths, MOAS lists, and community attributes are
// interned network-wide (intern.go) so per-adjacency routing state is a
// pair of uint32 ids in flat per-prefix arrays (compact.go) rather than
// a rib.Table per node; message delivery is a typed engine event
// carrying indices and a pooled message slot (no closure per message);
// one propagated advertisement is interned once and shared by id across
// all receiving peers; and Reset rewinds a network for reuse clearing
// every structure in place, without per-node allocation.
package simbgp

import (
	"fmt"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/rib"
	"repro/internal/rpki"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Mode selects a node's MOAS-checking behaviour.
type Mode int

// Node modes.
const (
	// ModeNormal is unmodified BGP: MOAS lists transit opaquely and are
	// never checked ("Normal BGP" curves).
	ModeNormal Mode = iota + 1
	// ModeDetect checks MOAS-list consistency and suppresses resolved
	// false routes (the full and half detection curves).
	ModeDetect
)

func (m Mode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeDetect:
		return "detect"
	default:
		return "unknown"
	}
}

// ResolverFunc adapts a function to the core.Resolver interface.
type ResolverFunc func(astypes.Prefix) (core.List, bool)

// ValidOrigins implements core.Resolver.
func (f ResolverFunc) ValidOrigins(p astypes.Prefix) (core.List, bool) { return f(p) }

// Config assembles a simulated network.
type Config struct {
	// Topology supplies the peering graph (required).
	Topology *topology.Graph
	// Resolver resolves detected conflicts (required if any node runs
	// ModeDetect).
	Resolver core.Resolver
	// Relations, when set, enables Gao-Rexford valley-free export
	// policy: routes learned from a peer or provider are exported only
	// to customers. Nil floods every best route to every neighbor (the
	// paper's model).
	Relations *topology.Relations
	// RPKI, when set, cross-checks every raised alarm against a
	// validated ROA store: each alarm bundle carries the rpki.Classify
	// class and the network tallies per-class counts (AlarmClasses). A
	// nil store leaves ROV silent (everything validates NotFound).
	RPKI *rpki.Store
}

// evDeliver is the one typed event kind Network.Dispatch handles: it
// delivers in-flight message B (a slot in Network.inflight) to node
// index A.
const evDeliver uint32 = 1

// Network is a simulated AS-level BGP internetwork.
type Network struct {
	engine *sim.Engine
	topo   *topology.Graph
	// nodes is the dense node array; byASN maps an ASN to its index and
	// asns caches the sorted ASN list. nodes is allocated once and never
	// regrown, so *Node pointers stay valid across Reset.
	nodes    []Node
	byASN    map[astypes.ASN]int32
	asns     []astypes.ASN
	resolver core.Resolver
	rpki     *rpki.Store
	// alarmClasses tallies raised alarms by ROV-crossed class across
	// the whole network, indexed by rpki.Class.
	alarmClasses [rpki.NumClasses]uint64
	msgCount     uint64
	relations    *topology.Relations
	recorder     *trace.Recorder

	// Adjacency-slot geometry: node i owns the global slot range
	// [slotBase[i], slotBase[i]+deg(i)] — one slot per neighbor in
	// ascending ASN order plus a trailing local slot. recip maps each
	// neighbor slot to the owner's slot index within that neighbor's own
	// adjacency (so a delivered message lands in O(1)); relSlot caches
	// the owner→neighbor business relation per slot when valley-free
	// export is enabled (relFilled remembers which Relations it holds).
	slotBase   []int32
	totalSlots int32
	recip      []int32
	relSlot    []topology.Relation
	relFilled  *topology.Relations

	// The network-global intern tables and the per-prefix flat routing
	// state (compact.go). All three tables and the prefix registry
	// persist across Reset: ids are content-addressed, so reuse is
	// behavior-neutral and steady-state sweeps stop allocating entirely.
	paths     *pathTab
	lists     *listTab
	comms     *commTab
	pfxID     map[astypes.Prefix]int32
	pfx       []pfxState
	pfxSorted []int32

	// inflight holds the payload of every scheduled-but-undelivered
	// message; freeMsgs recycles vacated slots so steady-state delivery
	// allocates nothing once the high-water mark is reached.
	inflight []message
	freeMsgs []uint32
	// visited/visitEpoch are the forwarding-walk scratch: a slot is
	// "visited" when it equals the current epoch, so clearing between
	// walks is one integer increment.
	visited    []uint32
	visitEpoch uint32
}

// linkDelay derives the (a, b) link's fixed delay in [10ms, 35ms) from
// its endpoints, so that message interleavings differ across links but
// never across runs.
func linkDelay(a, b astypes.ASN) time.Duration {
	h := uint32(a)*2654435761 ^ uint32(b)*40503
	return 10*time.Millisecond + time.Duration(h%25)*time.Millisecond
}

// NewNetwork builds one node per topology vertex, all in ModeNormal.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Topology == nil || cfg.Topology.NumNodes() == 0 {
		return nil, fmt.Errorf("simbgp: empty topology")
	}
	n := &Network{
		engine: sim.NewEngine(),
		topo:   cfg.Topology,
		paths:  newPathTab(),
		lists:  newListTab(),
		comms:  newCommTab(),
		pfxID:  make(map[astypes.Prefix]int32),
	}
	n.engine.SetDispatcher(n)
	asns := cfg.Topology.Nodes()
	n.asns = asns
	n.byASN = make(map[astypes.ASN]int32, len(asns))
	for i, a := range asns {
		n.byASN[a] = int32(i)
	}
	n.nodes = make([]Node, len(asns))
	n.visited = make([]uint32, len(asns))
	n.slotBase = make([]int32, len(asns))
	total := int32(0)
	for i, a := range asns {
		nd := &n.nodes[i]
		nd.asn = a
		nd.idx = int32(i)
		nd.net = n
		nd.neighbors = cfg.Topology.Neighbors(a)
		nd.neighborIdx = make([]int32, len(nd.neighbors))
		for s, p := range nd.neighbors {
			nd.neighborIdx[s] = n.byASN[p]
		}
		n.slotBase[i] = total
		total += int32(len(nd.neighbors)) + 1
	}
	n.totalSlots = total
	n.recip = make([]int32, total)
	n.relSlot = make([]topology.Relation, total)
	for i := range n.nodes {
		nd := &n.nodes[i]
		base := n.slotBase[i]
		for s := range nd.neighbors {
			peer := &n.nodes[nd.neighborIdx[s]]
			n.recip[base+int32(s)] = int32(peer.slotOf(nd.asn))
		}
	}
	n.applyConfig(cfg)
	return n, nil
}

// applyConfig installs the per-run configuration shared by NewNetwork
// and Reset. It allocates nothing per node: relation slots are refilled
// only when the Relations table actually changed.
func (n *Network) applyConfig(cfg Config) {
	n.resolver = cfg.Resolver
	n.relations = cfg.Relations
	n.rpki = cfg.RPKI
	if cfg.Relations != nil && n.relFilled != cfg.Relations {
		n.relFilled = cfg.Relations
		for i := range n.nodes {
			nd := &n.nodes[i]
			base := n.slotBase[i]
			for s, p := range nd.neighbors {
				n.relSlot[base+int32(s)] = cfg.Relations.Of(nd.asn, p)
			}
		}
	}
	for i := range n.nodes {
		n.nodes[i].mode = ModeNormal
	}
}

// Reset rewinds the network for a fresh run under cfg, reusing every
// node, intern table, and per-prefix array in place. cfg.Topology must
// be the exact *topology.Graph the network was built with (the dense
// index layout is derived from it); the resolver, relations and RPKI
// store may change between runs. Existing *Node pointers remain valid.
// Reset performs no per-node allocation, so pooled sweep reuse costs
// O(state) writes and O(1) allocs.
func (n *Network) Reset(cfg Config) error {
	if cfg.Topology != n.topo {
		return fmt.Errorf("simbgp: Reset requires the network's own topology")
	}
	n.engine.Reset()
	n.msgCount = 0
	n.recorder = nil
	clear(n.alarmClasses[:])
	n.visitEpoch = 0
	clear(n.visited)
	n.inflight = n.inflight[:0]
	n.freeMsgs = n.freeMsgs[:0]
	for i := range n.pfx {
		st := &n.pfx[i]
		clear(st.adjPath)
		clear(st.adjComm)
		clear(st.adjEff)
		clear(st.bestPlus)
		clear(st.adv)
		clear(st.resolved)
	}
	for i := range n.nodes {
		nd := &n.nodes[i]
		nd.attacker = false
		nd.stripMOAS = false
		nd.alarms = 0
	}
	n.applyConfig(cfg)
	return nil
}

// Node returns the node for asn, or nil.
func (n *Network) Node(asn astypes.ASN) *Node {
	if i, ok := n.byASN[asn]; ok {
		return &n.nodes[i]
	}
	return nil
}

// Nodes returns all node ASNs in ascending order.
func (n *Network) Nodes() []astypes.ASN {
	out := make([]astypes.ASN, len(n.asns))
	copy(out, n.asns)
	return out
}

// SetMode configures a node's MOAS-checking mode.
func (n *Network) SetMode(asn astypes.ASN, m Mode) error {
	node := n.Node(asn)
	if node == nil {
		return fmt.Errorf("simbgp: no node AS %s", asn)
	}
	node.mode = m
	return nil
}

// SetStripMOAS makes a node remove MOAS-list communities from every
// route it propagates — the §4.3 scenario of routers dropping optional
// transitive communities (and the tampering attacker of the ablation
// benches).
func (n *Network) SetStripMOAS(asn astypes.ASN, strip bool) error {
	node := n.Node(asn)
	if node == nil {
		return fmt.Errorf("simbgp: no node AS %s", asn)
	}
	node.stripMOAS = strip
	return nil
}

// MessageCount returns the number of UPDATE messages delivered so far.
func (n *Network) MessageCount() uint64 { return n.msgCount }

// AlarmClasses returns the network-wide tally of raised alarms by
// ROV-crossed class, indexed by rpki.Class. Without a configured RPKI
// store every alarm lands in the MOAS-provenance classes.
func (n *Network) AlarmClasses() [rpki.NumClasses]uint64 { return n.alarmClasses }

// Engine exposes the underlying event engine (for custom scheduling in
// tests and harnesses).
func (n *Network) Engine() *sim.Engine { return n.engine }

// Run drives the simulation to quiescence.
func (n *Network) Run() error { return n.engine.Run() }

// message is one simulated BGP UPDATE (or withdrawal) on a link. Path
// and community attributes travel as intern-table ids, so an in-flight
// message is a few words with no heap references, and every copy of one
// advertisement shares the same interned values. toSlot is the slot of
// the sender within the receiver's adjacency, precomputed so delivery
// never searches.
type message struct {
	from     astypes.ASN
	prefix   astypes.Prefix
	withdraw bool
	toSlot   int32
	pathID   uint32
	commID   uint32
}

// Dispatch executes typed engine events (sim.Dispatcher).
func (n *Network) Dispatch(ev sim.Typed) {
	if ev.Kind == evDeliver {
		n.deliver(ev.A, ev.B)
	}
}

// deliver hands inflight slot `slot` to node index toIdx, releasing
// the slot.
func (n *Network) deliver(toIdx, slot uint32) {
	msg := n.inflight[slot]
	n.inflight[slot] = message{}
	n.freeMsgs = append(n.freeMsgs, slot)
	dst := &n.nodes[toIdx]
	n.msgCount++
	// The delivery ordinal doubles as the trace span: alarm forensics
	// can point at "the Nth message delivered in this run", which is
	// stable under the deterministic engine.
	dst.receive(msg, n.msgCount)
}

// allocSlot parks msg in the inflight pool and returns its slot.
func (n *Network) allocSlot(msg message) uint32 {
	if k := len(n.freeMsgs); k > 0 {
		slot := n.freeMsgs[k-1]
		n.freeMsgs = n.freeMsgs[:k-1]
		n.inflight[slot] = msg
		return slot
	}
	n.inflight = append(n.inflight, msg)
	return uint32(len(n.inflight) - 1)
}

// sendSlot schedules msg from nd to its neighbor in adjacency slot s.
func (n *Network) sendSlot(nd *Node, s int, msg message) {
	msg.toSlot = n.recip[n.slotBase[nd.idx]+int32(s)]
	slot := n.allocSlot(msg)
	n.engine.ScheduleTyped(linkDelay(nd.asn, nd.neighbors[s]),
		sim.Typed{Kind: evDeliver, A: uint32(nd.neighborIdx[s]), B: slot})
}

// Originate makes asn announce prefix with the given MOAS list attached.
// An empty list attaches no communities (the implicit rule applies at
// receivers). The announcement is scheduled at the current virtual time.
func (n *Network) Originate(asn astypes.ASN, prefix astypes.Prefix, list core.List) error {
	node := n.Node(asn)
	if node == nil {
		return fmt.Errorf("simbgp: no node AS %s", asn)
	}
	n.engine.Schedule(0, func() { node.originate(prefix, list, false) })
	return nil
}

// OriginateInvalid makes asn falsely announce prefix (the attack). The
// forged list, if non-empty, is attached verbatim — e.g. a superset list
// including the attacker (§4.1) or a copy of the valid list.
func (n *Network) OriginateInvalid(asn astypes.ASN, prefix astypes.Prefix, forged core.List) error {
	node := n.Node(asn)
	if node == nil {
		return fmt.Errorf("simbgp: no node AS %s", asn)
	}
	n.engine.Schedule(0, func() { node.originate(prefix, forged, true) })
	return nil
}

// OriginateForgedPath makes asn announce prefix with a fabricated AS
// path — the §4.3 limitation case: "an AS could make a false route
// announcement with a correct origin AS but a manipulated AS path."
// The forged path's origin can be the legitimate origin, so the
// announcement carries a consistent implicit MOAS list and evades
// list checking entirely; only path authentication (the paper cites
// predecessor signing) would catch it.
func (n *Network) OriginateForgedPath(asn astypes.ASN, prefix astypes.Prefix, forged astypes.ASPath, list core.List) error {
	node := n.Node(asn)
	if node == nil {
		return fmt.Errorf("simbgp: no node AS %s", asn)
	}
	n.engine.Schedule(0, func() {
		node.attacker = true
		st := n.registerPrefix(prefix)
		pathID := n.paths.intern(forged)
		commID := n.comms.intern(list.Communities(), n.lists)
		effID := effectiveID(n.comms, n.lists, commID, n.paths.origin[pathID])
		if n.updateSlot(node, st, n.localSlot(node), pathID, commID, effID) {
			node.propagate(st)
		}
	})
	return nil
}

// Withdraw makes asn withdraw its locally originated route for prefix.
func (n *Network) Withdraw(asn astypes.ASN, prefix astypes.Prefix) error {
	node := n.Node(asn)
	if node == nil {
		return fmt.Errorf("simbgp: no node AS %s", asn)
	}
	n.engine.Schedule(0, func() { node.withdrawLocal(prefix) })
	return nil
}

// Node is one simulated AS.
type Node struct {
	asn       astypes.ASN
	idx       int32
	mode      Mode
	attacker  bool
	stripMOAS bool
	net       *Network
	// neighbors is the node's adjacency in ascending ASN order,
	// immutable after construction. neighborIdx holds the dense node
	// index per slot. All per-slot routing state lives in the network's
	// flat per-prefix arrays (compact.go).
	neighbors   []astypes.ASN
	neighborIdx []int32
	// alarms counts the MOAS conflicts this node has raised.
	alarms int
}

// ASN returns the node's AS number.
func (nd *Node) ASN() astypes.ASN { return nd.asn }

// Mode returns the node's MOAS-checking mode.
func (nd *Node) Mode() Mode { return nd.mode }

// Attacker reports whether the node has originated an invalid route.
func (nd *Node) Attacker() bool { return nd.attacker }

// AlarmCount returns the number of MOAS conflicts the node has raised.
func (nd *Node) AlarmCount() int { return nd.alarms }

// Best returns the node's selected route for prefix, or nil. The Route
// is materialized fresh from the interned state, so callers own it.
func (nd *Node) Best(prefix astypes.Prefix) *rib.Route {
	n := nd.net
	st, ok := n.stateOf(prefix)
	if !ok {
		return nil
	}
	b := st.bestPlus[nd.idx] - 1
	if b < 0 {
		return nil
	}
	var comms []astypes.Community
	if set := n.comms.setOf(st.adjComm[b]); len(set) > 0 {
		comms = make([]astypes.Community, len(set))
		copy(comms, set)
	}
	return &rib.Route{
		Prefix:      prefix,
		Path:        n.paths.materialize(st.adjPath[b]),
		Origin:      wire.OriginIGP,
		LocalPref:   rib.DefaultLocalPref,
		Communities: comms,
		FromPeer:    n.slotPeer(nd, b),
	}
}

// slotOf returns the adjacency slot of peer (binary search over the
// sorted neighbor list), or -1.
func (nd *Node) slotOf(peer astypes.ASN) int {
	lo, hi := 0, len(nd.neighbors)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nd.neighbors[mid] < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nd.neighbors) && nd.neighbors[lo] == peer {
		return lo
	}
	return -1
}

func (nd *Node) originate(prefix astypes.Prefix, list core.List, invalid bool) {
	if invalid {
		nd.attacker = true
	}
	n := nd.net
	st := n.registerPrefix(prefix)
	pathID := n.paths.prepend(0, nd.asn)
	commID := n.comms.intern(list.Communities(), n.lists)
	effID := effectiveID(n.comms, n.lists, commID, nd.asn)
	if n.updateSlot(nd, st, n.localSlot(nd), pathID, commID, effID) {
		nd.propagate(st)
	}
}

func (nd *Node) withdrawLocal(prefix astypes.Prefix) {
	n := nd.net
	st, ok := n.stateOf(prefix)
	if !ok {
		return
	}
	if n.clearSlot(nd, st, n.localSlot(nd)) {
		nd.propagate(st)
	}
}

func (nd *Node) receive(msg message, span uint64) {
	n := nd.net
	if msg.withdraw {
		if n.tracing() {
			n.record(trace.KindRecv, trace.DetailWithdrawal, nd.asn, msg.from, msg.prefix, astypes.ASNNone)
		}
		st, ok := n.stateOf(msg.prefix)
		if !ok {
			return
		}
		if n.clearSlot(nd, st, n.slotBase[nd.idx]+msg.toSlot) {
			nd.propagate(st)
		}
		return
	}
	if n.tracing() {
		n.record(trace.KindRecv, trace.DetailNone, nd.asn, msg.from, msg.prefix, n.paths.origin[msg.pathID])
	}
	st := n.registerPrefix(msg.prefix)
	g := n.slotBase[nd.idx] + msg.toSlot
	// Sender-side prepending already happened; standard loop detection.
	// A looped announcement still implicitly replaces — i.e. withdraws —
	// whatever this peer previously advertised for the prefix (RFC 4271
	// treats it as route exclusion); silently ignoring it would let two
	// nodes keep each other's stale routes alive forever after the
	// origin withdraws.
	if n.paths.contains(msg.pathID, nd.asn) {
		if n.clearSlot(nd, st, g) {
			nd.propagate(st)
		}
		return
	}
	var effID uint32
	if nd.mode == ModeDetect {
		effID = effectiveID(n.comms, n.lists, msg.commID, n.paths.origin[msg.pathID])
		if !nd.admit(msg, st, effID, span) {
			if n.tracing() {
				n.record(trace.KindValidate, trace.DetailRejected, nd.asn, msg.from, msg.prefix, n.paths.origin[msg.pathID])
			}
			// Rejected as invalid: treat the bogus announcement as a no-op.
			// Any previously accepted route from this peer is deliberately
			// kept — the checker "eliminates false routing announcements"
			// (§5.4) rather than tearing down state, mirroring a router that
			// refuses a poisoned replacement. If the peer has in fact moved
			// its traffic to the attacker, the forwarding-walk census still
			// observes the hijack.
			return
		}
	}
	if n.updateSlot(nd, st, g, msg.pathID, msg.commID, effID) {
		nd.propagate(st)
	}
}

// admit applies the paper's MOAS check to an incoming announcement,
// returning false if the route must be suppressed. effID is the
// announcement's interned effective MOAS list (0 = unresolvable).
func (nd *Node) admit(msg message, st *pfxState, effID uint32, span uint64) bool {
	n := nd.net
	if effID == 0 {
		// Neither an attached list nor an origin AS (the EffectiveList
		// error case).
		return false
	}
	origin := n.paths.origin[msg.pathID]

	// Already-resolved prefix: filter directly by the investigated
	// origin set.
	if r := st.resolved[nd.idx]; r != 0 {
		return n.lists.contains(r, origin)
	}

	// A route whose own origin is missing from its attached list is
	// bogus on its face (§4.1).
	if !n.lists.contains(effID, origin) {
		nd.raiseAndResolve(st, 0, effID, origin, msg.from, msg.pathID, core.VerdictOriginNotListed, span)
		if r := st.resolved[nd.idx]; r != 0 {
			return n.lists.contains(r, origin)
		}
		return false
	}

	// Compare against the effective lists of every route currently held
	// for the prefix (Adj-RIB-Ins and local). Interned list ids are
	// content-addressed, so id inequality is exactly the paper's
	// set-inequality predicate.
	base := n.slotBase[nd.idx]
	for s := 0; s <= len(nd.neighbors); s++ {
		held := n.heldEff(st, base+int32(s))
		if held == 0 || held == effID {
			continue
		}
		nd.raiseAndResolve(st, held, effID, origin, msg.from, msg.pathID, core.VerdictConflict, span)
		r := st.resolved[nd.idx]
		if r == 0 {
			// Unresolvable conflict: be conservative, reject the
			// newcomer (alarm stands for the operator).
			return false
		}
		nd.purgeInvalid(st, r)
		return n.lists.contains(r, origin)
	}
	return true
}

// raiseAndResolve counts and classifies one alarm, records its bundle
// when a recorder is attached, then consults the resolver, caching the
// answer in the prefix's resolved table. Only a recorded alarm touches
// real List and ASPath values.
func (nd *Node) raiseAndResolve(st *pfxState, existingID, receivedID uint32, origin, from astypes.ASN, pathID uint32, verdict core.Verdict, span uint64) {
	n := nd.net
	prefix := st.prefix
	class := rpki.Classify(n.rpki.Validate(prefix, origin), verdict)
	n.alarmClasses[class]++
	nd.alarms++
	if rec := n.recorder; rec.Enabled() {
		var existing, received core.List
		if existingID != 0 {
			existing = n.lists.listOf(existingID)
		}
		if receivedID != 0 {
			received = n.lists.listOf(receivedID)
		}
		c := core.Conflict{
			Prefix:   prefix,
			Existing: existing,
			Received: received,
			Origin:   origin,
			FromPeer: from,
			Path:     n.paths.materialize(pathID),
			Span:     span,
			Verdict:  verdict,
		}
		b := trace.ConflictBundle(&c, class.String())
		b.Node = uint32(nd.asn)
		b.VNanos = int64(n.engine.Now())
		rec.RecordAlarm(prefix, b)
	}
	if n.resolver == nil {
		return
	}
	if truth, ok := n.resolver.ValidOrigins(prefix); ok {
		st.resolved[nd.idx] = n.lists.intern(truth)
	}
}

// purgeInvalid withdraws any installed route for the prefix whose
// origin is outside the resolved valid set.
func (nd *Node) purgeInvalid(st *pfxState, truthID uint32) {
	n := nd.net
	base := n.slotBase[nd.idx]
	for s := range nd.neighbors {
		g := base + int32(s)
		p := st.adjPath[g]
		if p != 0 && !n.lists.contains(truthID, n.paths.origin[p]) {
			if n.clearSlot(nd, st, g) {
				nd.propagate(st)
			}
		}
	}
}

// outMsg is the advertisement a propagation builds lazily and then
// shares across every receiving peer: one interned Prepend (a map
// lookup in steady state) instead of per-peer path copies.
type outMsg struct {
	built  bool
	pathID uint32
	commID uint32
}

func (o *outMsg) build(nd *Node, st *pfxState, bestG int32) {
	if o.built {
		return
	}
	o.built = true
	n := nd.net
	o.pathID, o.commID = st.adjPath[bestG], st.adjComm[bestG]
	// A locally originated route already carries this AS as its path;
	// learned routes are prepended on export.
	if bestG != n.localSlot(nd) {
		o.pathID = n.paths.prepend(o.pathID, nd.asn)
		if nd.stripMOAS {
			o.commID = n.comms.stripOf(o.commID, n.lists)
		}
	}
}

// propagate reacts to a best-route change by advertising the new best
// (or a withdrawal) to every neighbor at once; the model has no MRAI
// timer (DESIGN.md §2).
func (nd *Node) propagate(st *pfxState) {
	bestG := st.bestPlus[nd.idx] - 1
	var adv outMsg
	for s := range nd.neighbors {
		nd.emitToSlot(s, st, bestG, &adv)
	}
}

// emitToSlot sends the best route in slot bestG (or a withdrawal when
// bestG is -1 or export policy forbids it) to the peer in adjacency
// slot s, maintaining the advertised bitset. adv is the shared
// advertisement cache for this propagation round.
func (nd *Node) emitToSlot(s int, st *pfxState, bestG int32, adv *outMsg) {
	n := nd.net
	g := n.slotBase[nd.idx] + int32(s)
	if bestG < 0 || !nd.mayExportSlot(bestG, s) {
		if !st.advBit(g) {
			return
		}
		st.clrAdv(g)
		n.sendSlot(nd, s, message{
			from:     nd.asn,
			prefix:   st.prefix,
			withdraw: true,
		})
		return
	}
	st.setAdv(g)
	adv.build(nd, st, bestG)
	n.sendSlot(nd, s, message{
		from:   nd.asn,
		prefix: st.prefix,
		pathID: adv.pathID,
		commID: adv.commID,
	})
}

// mayExportSlot applies the valley-free export rule when relationships
// are configured: local routes and routes learned from customers go to
// everyone; routes learned from peers or providers go to customers
// only. bestG is the slot the exported route was learned on.
func (nd *Node) mayExportSlot(bestG int32, s int) bool {
	n := nd.net
	if n.relations == nil {
		return true
	}
	base := n.slotBase[nd.idx]
	if bestG == base+int32(len(nd.neighbors)) {
		return true // locally originated
	}
	if n.relSlot[bestG] == topology.RelProvider {
		return true // learned from a customer
	}
	return n.relSlot[base+int32(s)] == topology.RelProvider
}

// AdoptsFalse reports whether the node's best route for prefix
// originates at an AS outside the valid set — i.e. the node has adopted
// a false route (the paper's Y-axis metric).
func (nd *Node) AdoptsFalse(prefix astypes.Prefix, valid core.List) bool {
	n := nd.net
	st, ok := n.stateOf(prefix)
	if !ok {
		return false
	}
	b := st.bestPlus[nd.idx] - 1
	if b < 0 {
		return false
	}
	return !valid.Contains(n.paths.origin[st.adjPath[b]])
}

// Census counts, over non-attacker nodes, how many adopted a false route
// for prefix and how many have no route at all.
type Census struct {
	NonAttackers int
	AdoptedFalse int
	NoRoute      int
	AlarmedNodes int
}

// FalsePct returns the paper's metric: percentage of non-attacker ASes
// adopting a false route.
func (c Census) FalsePct() float64 {
	if c.NonAttackers == 0 {
		return 0
	}
	return 100 * float64(c.AdoptedFalse) / float64(c.NonAttackers)
}

// TakeCensus computes the adoption census for prefix against the valid
// origin set: the paper's metric counts a non-attacker AS as affected
// when the best route in its RIB originates outside the valid origin
// set ("the percentage of the remaining ASes (excluding attackers)
// adopting the false routes", §5.2).
func (n *Network) TakeCensus(prefix astypes.Prefix, valid core.List) Census {
	var c Census
	st, registered := n.stateOf(prefix)
	for i := range n.nodes {
		node := &n.nodes[i]
		if node.attacker {
			continue
		}
		c.NonAttackers++
		b := int32(-1)
		if registered {
			b = st.bestPlus[i] - 1
		}
		switch {
		case b < 0:
			c.NoRoute++
		case !valid.Contains(n.paths.origin[st.adjPath[b]]):
			c.AdoptedFalse++
		}
		if node.alarms > 0 {
			c.AlarmedNodes++
		}
	}
	return c
}

// TakeForwardingCensus is the stricter traffic-level census: a node
// counts as hijacked when the AS-level forwarding walk for prefix
// passes through any attacker or terminates at a false origin. It is
// reported alongside the paper's RIB-level metric in the harness's
// extended output.
func (n *Network) TakeForwardingCensus(prefix astypes.Prefix, valid core.List) Census {
	var c Census
	for i := range n.nodes {
		node := &n.nodes[i]
		if node.attacker {
			continue
		}
		c.NonAttackers++
		switch n.forwardOutcome(node, prefix, valid) {
		case outcomeNoRoute:
			c.NoRoute++
		case outcomeHijacked:
			c.AdoptedFalse++
		}
		if node.alarms > 0 {
			c.AlarmedNodes++
		}
	}
	return c
}

type forwardResult int

const (
	outcomeDelivered forwardResult = iota + 1
	outcomeHijacked
	outcomeNoRoute
)

// forwardOutcome walks the AS-level forwarding path a packet for prefix
// takes from src, reporting whether it is delivered to a valid origin,
// captured by an attacker/false origin, or dropped for lack of a route.
func (n *Network) forwardOutcome(src *Node, prefix astypes.Prefix, valid core.List) forwardResult {
	st, registered := n.stateOf(prefix)
	n.visitEpoch++
	epoch := n.visitEpoch
	node := src
	for {
		if n.visited[node.idx] == epoch {
			return outcomeNoRoute // forwarding loop: packet never delivered
		}
		n.visited[node.idx] = epoch
		if node.attacker {
			return outcomeHijacked
		}
		if !registered {
			return outcomeNoRoute
		}
		b := st.bestPlus[node.idx] - 1
		if b < 0 {
			return outcomeNoRoute
		}
		rel := b - n.slotBase[node.idx]
		if int(rel) == len(node.neighbors) {
			// node originates the route itself.
			if valid.Contains(node.asn) {
				return outcomeDelivered
			}
			return outcomeHijacked
		}
		node = &n.nodes[node.neighborIdx[rel]]
	}
}
