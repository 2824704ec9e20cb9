package simbgp

import (
	"slices"
	"time"

	"repro/internal/astypes"
	"repro/internal/sim"
)

// MRAI — the MinRouteAdvertisementInterval of RFC 4271 §9.2.1.1 — rate
// limits advertisements per peer: after sending a route to a peer, a
// speaker holds further advertisements (but not withdrawals) to that
// peer until the interval elapses, batching intervening changes. SSFnet
// models it the same way; it is off by default here because the paper's
// convergence results do not depend on it, and enabled through
// Config.MRAI for the overhead ablation.

// mraiState tracks one node's per-peer advertisement timers. It is
// created lazily on a node's first deferred advertisement (the interval
// itself lives on the Node), so enabling MRAI on an internet-scale
// network costs nothing on nodes that never advertise.
type mraiState struct {
	// lastAdv is the virtual time of the last advertisement per peer.
	lastAdv map[astypes.ASN]time.Duration
	// pending accumulates prefixes whose advertisement was deferred.
	pending map[astypes.ASN]map[astypes.Prefix]bool
	// scheduled marks peers with a flush event outstanding.
	scheduled map[astypes.ASN]bool
	// batch is flushMRAI's scratch: one peer's deferred prefixes, sorted
	// so a flush emits them in the same order on every run.
	batch []astypes.Prefix
}

// clearAll rewinds the timer state in place for run reuse. Per-peer
// batch maps survive (emptied) so a rewound network re-runs without
// reallocating one map per deferring node.
func (m *mraiState) clearAll() {
	clear(m.lastAdv)
	for _, batch := range m.pending {
		clear(batch)
	}
	clear(m.scheduled)
}

// shouldDefer reports whether an advertisement to peer must wait, and
// if so records the prefix and ensures a flush is scheduled.
func (nd *Node) shouldDefer(peer astypes.ASN, prefix astypes.Prefix) bool {
	if nd.mraiInterval <= 0 {
		return false
	}
	m := nd.mrai
	if m == nil {
		m = &mraiState{
			lastAdv:   make(map[astypes.ASN]time.Duration),
			pending:   make(map[astypes.ASN]map[astypes.Prefix]bool),
			scheduled: make(map[astypes.ASN]bool),
		}
		nd.mrai = m
	}
	now := nd.net.engine.Now()
	last, sent := m.lastAdv[peer]
	if !sent || now-last >= nd.mraiInterval {
		m.lastAdv[peer] = now
		return false
	}
	if m.pending[peer] == nil {
		m.pending[peer] = make(map[astypes.Prefix]bool)
	}
	m.pending[peer][prefix] = true
	if !m.scheduled[peer] {
		m.scheduled[peer] = true
		delay := last + nd.mraiInterval - now
		nd.net.engine.ScheduleTyped(delay,
			sim.Typed{Kind: evMRAIFlush, A: uint32(nd.idx), B: uint32(peer)})
	}
	return true
}

// flushMRAI re-advertises the current best route for every deferred
// prefix (or a withdrawal, if the route evaporated while held).
func (nd *Node) flushMRAI(peer astypes.ASN) {
	m := nd.mrai
	if m == nil {
		return
	}
	m.scheduled[peer] = false
	prefixes := m.pending[peer]
	if len(prefixes) == 0 {
		return
	}
	// The batch map is kept (emptied in place) for the peer's next burst:
	// churny peers would otherwise reallocate it every interval, and
	// pooled sweep reruns once per node per run.
	defer clear(prefixes)
	if !nd.hasNeighbor(peer) {
		return // link failed while the batch was held
	}
	m.lastAdv[peer] = nd.net.engine.Now()
	// Map order would make the batch's send order, and so every later
	// event and span ordinal, differ between identical runs.
	m.batch = m.batch[:0]
	for prefix := range prefixes {
		m.batch = append(m.batch, prefix)
	}
	slices.SortFunc(m.batch, astypes.Prefix.Compare)
	for _, prefix := range m.batch {
		nd.emitTo(peer, prefix)
	}
}
