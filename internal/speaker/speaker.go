// Package speaker assembles a complete BGP speaker from the substrate
// packages: wire codec, per-peer sessions, RIB and decision process,
// and — the point of the exercise — the paper's MOAS-list mechanism
// wired into the import policy. A speaker originates prefixes with MOAS
// lists attached via the community attribute, checks every received
// announcement for MOAS-list consistency, raises alarms on conflicts,
// optionally resolves them against a core.Resolver (DNS MOASRR stand-in),
// and refuses to install or propagate resolved-invalid routes.
//
// Speakers run over real TCP (or any net.Conn, e.g. net.Pipe in tests);
// the examples and integration tests build multi-AS meshes in-process.
package speaker

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ptrie"
	"repro/internal/rib"
	"repro/internal/rpki"
	"repro/internal/session"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ValidationMode selects what the speaker does with its MOAS checker.
type ValidationMode int

// Validation modes.
const (
	// ValidationOff: plain BGP; MOAS communities transit untouched.
	ValidationOff ValidationMode = iota + 1
	// ValidationAlarm: check and raise alarms, but accept the route
	// (the paper's minimal deployment: an alarm prompts investigation).
	ValidationAlarm
	// ValidationDrop: check, alarm, resolve, and reject routes from
	// origins outside the resolved valid set (the simulation's
	// full-detection behaviour).
	ValidationDrop
)

func (m ValidationMode) String() string {
	switch m {
	case ValidationOff:
		return "off"
	case ValidationAlarm:
		return "alarm"
	case ValidationDrop:
		return "drop"
	default:
		return "unknown"
	}
}

// ListEncoding selects how this speaker attaches MOAS lists to the
// routes it originates. Checking always understands both encodings.
type ListEncoding int

// List encodings.
const (
	// EncodeCommunities is the paper's deployment-friendly encoding:
	// one (ASN : MLVal) community per entitled origin (§4.2).
	EncodeCommunities ListEncoding = iota + 1
	// EncodeAttribute carries the list in the dedicated optional
	// transitive path attribute (core.ListAttrCode); unmodified
	// speakers transit it untouched.
	EncodeAttribute
)

// Config parameterizes a Speaker.
type Config struct {
	// AS and RouterID identify the speaker; AS is required.
	AS       astypes.ASN
	RouterID uint32
	// Validation selects the MOAS checking behaviour (default off).
	Validation ValidationMode
	// Resolver resolves conflicts under ValidationDrop; without one,
	// conflicting routes are rejected conservatively.
	Resolver core.Resolver
	// HoldTime for sessions (zero selects the session default).
	HoldTime time.Duration
	// OnAlarm, if set, is invoked for every MOAS conflict detected. It
	// runs on the session goroutine with the speaker's lock held, so it
	// must not call back into the speaker.
	OnAlarm func(core.Conflict)
	// ListEncoding selects the MOAS-list encoding on originated routes
	// (default EncodeCommunities).
	ListEncoding ListEncoding
	// ImportDeny lists prefixes whose announcements are rejected from
	// every peer (with all their more-specifics) — the operational
	// bogon/martian filter that complements MOAS checking.
	ImportDeny []astypes.Prefix
	// OnPeerDown, if set, is invoked on its own goroutine after a peer
	// session ends and its routes are flushed; Close waits for it.
	OnPeerDown func(peer astypes.ASN)
	// Telemetry, if set, is the registry the speaker instruments itself
	// (and its sessions) on; nil creates a private "moas" registry, so
	// counting is always on.
	Telemetry *telemetry.Registry
	// Trace, if set, is the flight recorder the speaker (and its
	// sessions) record pipeline events on: message receipt, validation
	// verdicts, RIB decisions, exports, and alarm forensics.
	Trace *trace.Recorder
	// RPKI, if set, is the validated ROA store every detected conflict
	// is cross-checked against: the ROV outcome for (prefix, origin)
	// crossed with the checker verdict yields the alarm's class
	// (benign-moas / likely-misconfig / likely-hijack). A nil store
	// validates to NotFound, degrading to the MOAS-provenance classes.
	RPKI *rpki.Store
	// Obs, if set, records per-stage detection latency: sessions stamp
	// ingest at the wire reader, the speaker crosses the validate and
	// RIB stages per prefix, and a raised alarm records the cumulative
	// ingest → alarm latency against the message's span.
	Obs *obs.Recorder
}

// Speaker is a BGP speaker instance.
type Speaker struct {
	cfg     Config
	checker *core.Checker
	reg     *telemetry.Registry
	met     *metrics

	// denied, when non-nil, indexes the import deny list.
	denied *ptrie.Trie[struct{}]

	mu    sync.Mutex
	table *rib.Table // set at construction; the Table locks itself
	// peers holds established sessions in ascending peer-AS order, so
	// every walk (export, purge, MIB) is deterministic without a sort.
	// Guarded by mu.
	peers []*peer
	// alarms is the log of raised MOAS conflicts, in detection order.
	// Guarded by mu.
	alarms []core.Conflict

	// resolved caches Resolver answers per prefix. Guarded by mu.
	resolved map[astypes.Prefix]core.List
	// aggregates holds configured aggregate state. Guarded by mu.
	aggregates []*aggregateState
	listeners  []net.Listener // guarded by mu
	closed     bool           // guarded by mu

	wg sync.WaitGroup
}

type peer struct {
	asn  astypes.ASN
	sess *session.Session
	// advertised is the set of prefixes currently announced to this
	// peer, for withdrawals; a withdrawal removes its prefix.
	advertised map[astypes.Prefix]struct{}
	// sendQ decouples route propagation from transport writes: the RIB
	// lock is never held across a blocking socket write, so meshes over
	// synchronous transports (net.Pipe) cannot deadlock.
	sendQ chan *wire.Update
	// qdone is closed when the writer goroutine exits.
	qdone chan struct{}
	// tornDown is set by the first teardownLocked, so a burst of
	// overflowing updates closes the session once. Read and set under
	// Speaker.mu.
	tornDown bool
}

// sendQueueLen bounds per-peer outbound buffering; overflow tears the
// session down (a peer that cannot drain this many updates is stuck).
const sendQueueLen = 4096

func (p *peer) enqueue(u *wire.Update) bool {
	select {
	case p.sendQ <- u:
		return true
	default:
		return false
	}
}

func (p *peer) writeLoop() {
	defer close(p.qdone)
	batch := make([]*wire.Update, 0, 64)
	for u := range p.sendQ {
		// Drain whatever else is already queued so a propagation burst
		// goes out as one buffered batch instead of one write per route.
		batch = append(batch[:0], u)
	drain:
		for len(batch) < cap(batch) {
			select {
			case more, ok := <-p.sendQ:
				if !ok {
					break drain
				}
				batch = append(batch, more)
			default:
				break drain
			}
		}
		if _, err := p.sess.SendUpdates(batch); err != nil {
			return
		}
	}
}

// New builds a speaker.
func New(cfg Config) (*Speaker, error) {
	if cfg.AS == astypes.ASNNone {
		return nil, errors.New("speaker: AS required")
	}
	if cfg.Validation == 0 {
		cfg.Validation = ValidationOff
	}
	if cfg.ListEncoding == 0 {
		cfg.ListEncoding = EncodeCommunities
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry("moas")
	}
	s := &Speaker{
		cfg:      cfg,
		checker:  core.NewChecker(),
		reg:      reg,
		met:      newMetrics(reg),
		table:    rib.NewTable(),
		resolved: make(map[astypes.Prefix]core.List),
	}
	if len(cfg.ImportDeny) > 0 {
		s.denied = ptrie.New[struct{}]()
		for _, p := range cfg.ImportDeny {
			s.denied.Insert(p, struct{}{})
		}
	}
	return s, nil
}

// AS returns the speaker's AS number.
func (s *Speaker) AS() astypes.ASN { return s.cfg.AS }

// Table exposes the speaker's RIB.
func (s *Speaker) Table() *rib.Table { return s.table }

// Alarms returns all MOAS conflicts detected so far, in detection order.
func (s *Speaker) Alarms() []core.Conflict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.Conflict(nil), s.alarms...)
}

// AlarmCount returns the number of MOAS conflicts detected so far,
// read from the speaker_moas_alarms_total counter without copying the
// alarm log.
func (s *Speaker) AlarmCount() uint64 { return s.met.alarms.Value() }

// handler adapts one connection's session callbacks to the speaker.
// Each connection gets its own, so a session that goes down can tell
// whether it is the one registered for its AS.
type handler struct {
	s    *Speaker
	p    *peer // set on registration; guarded by Speaker.mu
	down bool  // the session has gone down; guarded by Speaker.mu
}

func (h *handler) HandleUpdate(peerAS astypes.ASN, u *wire.Update) {
	h.s.handleUpdate(peerAS, u, 0, nil)
}

// HandleUpdateStamp is the delivery path the session takes: the stamp
// carries the message's span, so every downstream event correlates back
// to the exact UPDATE, plus the ingest instant, so validate/RIB
// crossings and the alarm latency land in the speaker's obs recorder.
func (h *handler) HandleUpdateStamp(peerAS astypes.ASN, u *wire.Update, st *obs.Stamp) {
	h.s.handleUpdate(peerAS, u, st.Span, st)
}

func (h *handler) HandleDown(peerAS astypes.ASN, err error) {
	h.s.handlePeerDown(h, peerAS)
}

// deniedPrefix reports whether the import filter rejects prefix.
func (s *Speaker) deniedPrefix(prefix astypes.Prefix) bool {
	if s.denied == nil {
		return false
	}
	_, _, covered := s.denied.LongestMatchPrefix(prefix)
	return covered
}

// findPeerLocked returns the index of peer AS asn in s.peers, or the
// index it would be inserted at, and whether it is there.
func (s *Speaker) findPeerLocked(asn astypes.ASN) (int, bool) {
	return slices.BinarySearchFunc(s.peers, asn, func(p *peer, a astypes.ASN) int {
		return cmp.Compare(p.asn, a)
	})
}

// peerLocked returns the established peer with AS asn, or nil.
func (s *Speaker) peerLocked(asn astypes.ASN) *peer {
	if i, ok := s.findPeerLocked(asn); ok {
		return s.peers[i]
	}
	return nil
}

// AddPeerConn runs the BGP handshake on an existing connection and
// registers the peer. peerAS of ASNNone accepts any AS.
func (s *Speaker) AddPeerConn(conn net.Conn, peerAS astypes.ASN) (astypes.ASN, error) {
	h := &handler{s: s}
	sess, err := session.Establish(conn, session.Config{
		LocalAS:  s.cfg.AS,
		LocalID:  s.cfg.RouterID,
		PeerAS:   peerAS,
		HoldTime: s.cfg.HoldTime,
		Handler:  h,
		Metrics:  s.met.session,
		Trace:    s.cfg.Trace,
		Obs:      s.cfg.Obs,
	})
	if err != nil {
		return astypes.ASNNone, fmt.Errorf("speaker AS %s: establish: %w", s.cfg.AS, err)
	}
	got := sess.PeerAS()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sess.Close()
		return astypes.ASNNone, errors.New("speaker closed")
	}
	i, dup := s.findPeerLocked(got)
	if dup {
		s.mu.Unlock()
		sess.Close()
		return astypes.ASNNone, fmt.Errorf("speaker AS %s: duplicate session with AS %s", s.cfg.AS, got)
	}
	if h.down {
		s.mu.Unlock()
		sess.Close()
		return astypes.ASNNone, fmt.Errorf("speaker AS %s: session with AS %s went down during setup", s.cfg.AS, got)
	}
	p := &peer{
		asn:        got,
		sess:       sess,
		advertised: make(map[astypes.Prefix]struct{}),
		sendQ:      make(chan *wire.Update, sendQueueLen),
		qdone:      make(chan struct{}),
	}
	h.p = p
	s.peers = slices.Insert(s.peers, i, p)
	s.met.peers.Inc()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		p.writeLoop()
	}()
	// Advertise the current Loc-RIB to the new peer.
	for _, r := range s.table.BestRoutes() {
		if s.suppressedLocked(r.Prefix) {
			continue
		}
		s.advertiseLocked(p, r)
	}
	s.mu.Unlock()
	return got, nil
}

// Connect dials addr and peers with the given AS.
func (s *Speaker) Connect(addr string, peerAS astypes.ASN) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("speaker AS %s: dial %s: %w", s.cfg.AS, addr, err)
	}
	if _, err := s.AddPeerConn(conn, peerAS); err != nil {
		return err
	}
	return nil
}

// Listen accepts inbound peering connections on ln until the speaker is
// closed. It returns immediately; accepting happens on a goroutine.
func (s *Speaker) Listen(ln net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return
	}
	s.listeners = append(s.listeners, ln)
	// Add while still holding mu with closed false: Close sets closed
	// under mu before it Waits, so the Add cannot race the Wait.
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				// Inbound peer AS learned from its OPEN.
				if _, err := s.AddPeerConn(conn, astypes.ASNNone); err != nil {
					conn.Close()
				}
			}()
		}
	}()
}

// AdvertisedTo returns the prefixes currently advertised to one peer,
// in ascending order — the speaker's Adj-RIB-Out view for debugging and
// export-policy tests.
func (s *Speaker) AdvertisedTo(peerAS astypes.ASN) []astypes.Prefix {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peerLocked(peerAS)
	if p == nil {
		return nil
	}
	var out []astypes.Prefix
	for prefix := range p.advertised {
		out = append(out, prefix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Peers returns the ASNs of established peers in ascending order.
func (s *Speaker) Peers() []astypes.ASN {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]astypes.ASN, len(s.peers))
	for i, p := range s.peers {
		out[i] = p.asn
	}
	return out
}

// Originate announces prefix from this speaker with the given MOAS list
// (empty list attaches no communities; receivers apply the implicit
// rule).
func (s *Speaker) Originate(prefix astypes.Prefix, list core.List) {
	route := &rib.Route{
		Prefix:    prefix,
		Path:      astypes.NewSeqPath(s.cfg.AS),
		Origin:    wire.OriginIGP,
		LocalPref: rib.DefaultLocalPref,
		FromPeer:  astypes.ASNNone,
	}
	if !list.Empty() {
		switch s.cfg.ListEncoding {
		case EncodeAttribute:
			route.Unknown = []wire.UnknownAttr{
				wire.NewOptionalTransitive(core.ListAttrCode, list.AttrBytes()),
			}
		default:
			route.Communities = list.Communities()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The route was built fresh above (list encoders return fresh
	// slices), so ownership transfers to the table without a clone.
	ch := s.table.OriginateOwned(route)
	s.propagateLocked(ch, 0)
}

// WithdrawLocal withdraws a locally originated prefix.
func (s *Speaker) WithdrawLocal(prefix astypes.Prefix) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.table.WithdrawLocal(prefix)
	s.propagateLocked(ch, 0)
}

func (s *Speaker) handleUpdate(peerAS astypes.ASN, u *wire.Update, span uint64, st *obs.Stamp) {
	s.met.updatesIn.Inc()
	s.met.withdrawalsIn.Add(uint64(len(u.Withdrawn)))
	origin, _ := u.Attrs.ASPath.Origin()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range u.Withdrawn {
		ch := s.table.Withdraw(peerAS, w)
		s.propagateLocked(ch, span)
	}
	if len(u.NLRI) == 0 {
		return
	}
	// Receiver-side sanity: the peer must have prepended itself.
	if first, ok := u.Attrs.ASPath.First(); !ok || first != peerAS {
		s.met.routesRejected.Add(uint64(len(u.NLRI)))
		for _, prefix := range u.NLRI {
			s.recordValidate(prefix, peerAS, origin, trace.DetailRejected, span)
		}
		return
	}
	// Loop detection. A looped announcement is an implicit withdrawal of
	// the peer's previous route for each prefix (RFC 4271 route
	// exclusion): ignoring it would leave stale routes that two speakers
	// can keep mutually alive after the origin withdraws.
	if u.Attrs.ASPath.Contains(s.cfg.AS) {
		s.met.loopsDropped.Add(uint64(len(u.NLRI)))
		for _, prefix := range u.NLRI {
			ch := s.table.Withdraw(peerAS, prefix)
			s.propagateLocked(ch, span)
		}
		return
	}
	for _, prefix := range u.NLRI {
		if s.deniedPrefix(prefix) {
			s.met.routesRejected.Inc()
			s.recordValidate(prefix, peerAS, origin, trace.DetailRejected, span)
			continue
		}
		if s.cfg.Validation != ValidationOff {
			admitted := s.admitLocked(prefix, u.Attrs, peerAS, span, st)
			s.cfg.Obs.Cross(st, obs.StageValidate)
			if !admitted {
				s.met.routesRejected.Inc()
				s.recordValidate(prefix, peerAS, origin, trace.DetailRejected, span)
				continue
			}
		}
		s.met.routesAccepted.Inc()
		route := &rib.Route{
			Prefix:          prefix,
			Path:            u.Attrs.ASPath.Clone(),
			Origin:          u.Attrs.Origin,
			NextHop:         u.Attrs.NextHop,
			LocalPref:       rib.DefaultLocalPref,
			Communities:     append([]astypes.Community(nil), u.Attrs.Communities...),
			FromPeer:        peerAS,
			AtomicAggregate: u.Attrs.AtomicAggregate,
			AggregatorAS:    u.Attrs.AggregatorAS,
			AggregatorID:    u.Attrs.AggregatorID,
			Unknown:         wire.CloneUnknownAttrs(u.Attrs.Unknown),
		}
		// route deep-copied everything it keeps from the decoder-scratch
		// Update above, so the table takes ownership without re-cloning.
		ch := s.table.UpdateOwned(route)
		s.propagateLocked(ch, span)
		s.cfg.Obs.Cross(st, obs.StageRIB)
	}
}

// recordValidate captures a validation-stage trace event.
func (s *Speaker) recordValidate(prefix astypes.Prefix, peerAS, origin astypes.ASN, detail trace.Detail, span uint64) {
	if !s.cfg.Trace.Enabled() {
		return
	}
	s.cfg.Trace.Record(trace.Event{
		Span:   span,
		Kind:   trace.KindValidate,
		Detail: detail,
		Node:   s.cfg.AS,
		Peer:   peerAS,
		Origin: origin,
		Prefix: prefix,
	})
}

// admitLocked applies the MOAS check to one NLRI of an UPDATE and raises
// the alarm on a conflict: classify, count, record the ingest → alarm
// latency against the message's stamp, capture the forensic bundle, log
// the conflict, and notify OnAlarm — all before the validate event, so
// the bundle's timeline ends with the alarm.
func (s *Speaker) admitLocked(prefix astypes.Prefix, attrs wire.PathAttrs, peerAS astypes.ASN, span uint64, st *obs.Stamp) bool {
	origin, _ := attrs.ASPath.Origin()
	if truth, ok := s.resolved[prefix]; ok && s.cfg.Validation == ValidationDrop {
		return truth.Contains(origin)
	}
	verdict, conflict := s.checker.Check(core.Announcement{
		Prefix:      prefix,
		Path:        attrs.ASPath,
		Communities: attrs.Communities,
		ListAttr:    wire.FindUnknownAttr(attrs.Unknown, core.ListAttrCode),
		FromPeer:    peerAS,
		Span:        span,
	})
	if conflict != nil {
		class := rpki.Classify(s.cfg.RPKI.Validate(prefix, conflict.Origin), verdict)
		s.met.alarms.Inc()
		s.met.alarmClasses.With(class.String()).Inc()
		s.cfg.Obs.End(st, obs.StageAlarm)
		if s.cfg.Trace.Enabled() {
			b := trace.ConflictBundle(conflict, class.String())
			b.Node = uint32(s.cfg.AS)
			s.cfg.Trace.RecordAlarm(prefix, b)
		}
		s.alarms = append(s.alarms, *conflict)
		if s.cfg.OnAlarm != nil {
			s.cfg.OnAlarm(*conflict)
		}
	}
	s.recordValidate(prefix, peerAS, origin, trace.VerdictDetail(verdict), span)
	if conflict == nil {
		return true
	}
	if s.cfg.Validation == ValidationAlarm {
		return true // alarm raised; route accepted pending investigation
	}
	// ValidationDrop: resolve and filter.
	if s.cfg.Resolver != nil {
		if truth, ok := s.cfg.Resolver.ValidOrigins(prefix); ok {
			s.resolved[prefix] = truth
			s.purgeInvalidLocked(prefix, truth)
			return truth.Contains(origin)
		}
	}
	return false
}

// purgeInvalidLocked drops installed routes for prefix whose origin is
// outside the resolved valid set: one table lookup per peer, whatever
// the size of its Adj-RIB-In. Every invalid route leaves the table
// before anything is exported, and peers hear one net change, from the
// best route before the purge to the best after it: a forged route that
// becomes best only while the other forged routes are withdrawn one by
// one is never advertised.
func (s *Speaker) purgeInvalidLocked(prefix astypes.Prefix, truth core.List) {
	merged := rib.Change{Prefix: prefix}
	for _, p := range s.peers {
		r := s.table.RouteFrom(p.asn, prefix)
		if r == nil || truth.Contains(r.OriginAS()) {
			continue
		}
		if ch := s.table.Withdraw(p.asn, prefix); ch.Changed {
			if !merged.Changed {
				merged.Old = ch.Old
			}
			merged.New, merged.Changed = ch.New, true
		}
	}
	// Withdrawals never bring back the best route they replaced, so a
	// change in any step is a net change.
	s.propagateLocked(merged, 0)
}

// handlePeerDown tears down the peering h registered. Only that
// session owns it: a rejected duplicate going down leaves the
// established peer with the same AS, and its routes, alone.
func (s *Speaker) handlePeerDown(h *handler, peerAS astypes.ASN) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h.down = true
	i, ok := s.findPeerLocked(peerAS)
	if !ok || s.peers[i] != h.p {
		return
	}
	p := s.peers[i]
	s.peers = slices.Delete(s.peers, i, i+1)
	s.met.peers.Dec()
	close(p.sendQ)
	for _, ch := range s.table.DropPeer(peerAS) {
		s.propagateLocked(ch, 0)
	}
	if s.cfg.OnPeerDown != nil && !s.closed {
		// Tracked so Close waits for the callback; Add is safe here
		// because closed is false under the same mu Close sets it in.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.cfg.OnPeerDown(peerAS)
		}()
	}
}

// propagateLocked reacts to a best-route change: advertise the new best
// (or a withdrawal) to every established peer, re-evaluate any
// aggregates the prefix contributes to, and honor summary-only
// suppression. span correlates the change to the UPDATE that caused it
// (0 for local events: origination, peer teardown, aggregation).
func (s *Speaker) propagateLocked(ch rib.Change, span uint64) {
	if !ch.Changed {
		return
	}
	s.recordRIB(ch, span)
	s.refreshAggregatesLocked(ch.Prefix)
	suppressed := s.suppressedLocked(ch.Prefix)
	if suppressed && ch.New != nil {
		s.met.suppressed.Inc()
	}
	// The export UPDATE is built once and shared by every peer: updates
	// are immutable once enqueued, and the encoder only reads them.
	var u *wire.Update
	if ch.New != nil && !suppressed {
		u = s.exportUpdate(ch.New)
	}
	for _, p := range s.peers {
		if u == nil {
			s.withdrawFromLocked(p, ch.Prefix, span)
			continue
		}
		s.enqueueUpdateLocked(p, u, ch.Prefix, span)
	}
}

// recordRIB captures the decision-process trace event for one change.
func (s *Speaker) recordRIB(ch rib.Change, span uint64) {
	if !s.cfg.Trace.Enabled() {
		return
	}
	e := trace.Event{
		Span:   span,
		Kind:   trace.KindRIB,
		Node:   s.cfg.AS,
		Prefix: ch.Prefix,
	}
	switch {
	case ch.New == nil:
		e.Detail = trace.DetailWithdrawn
	case ch.Old == nil:
		e.Detail = trace.DetailInstalled
	default:
		e.Detail = trace.DetailReplaced
	}
	if ch.New != nil {
		e.Peer = ch.New.FromPeer
		e.Origin = ch.New.OriginAS()
	}
	s.cfg.Trace.Record(e)
}

// exportUpdate builds the UPDATE advertising route r to peers. The
// result aliases r's immutable slices (communities, unknown attrs), so
// it must be treated as read-only, which every enqueue/encode path is.
func (s *Speaker) exportUpdate(r *rib.Route) *wire.Update {
	// A locally originated route already carries this AS as its path;
	// learned routes are prepended on export.
	path := r.Path
	if r.FromPeer != astypes.ASNNone {
		path = path.Prepend(s.cfg.AS)
	}
	// NEXT_HOP is mandatory; at this abstraction level it is an opaque
	// value, and the speaker advertises 0.
	return &wire.Update{
		Attrs: wire.PathAttrs{
			HasOrigin:       true,
			Origin:          r.Origin,
			ASPath:          path,
			HasNextHop:      true,
			Communities:     r.Communities,
			AtomicAggregate: r.AtomicAggregate,
			HasAggregator:   r.AggregatorAS != astypes.ASNNone,
			AggregatorAS:    r.AggregatorAS,
			AggregatorID:    r.AggregatorID,
			Unknown:         r.Unknown,
		},
		NLRI: []astypes.Prefix{r.Prefix},
	}
}

func (s *Speaker) advertiseLocked(p *peer, r *rib.Route) {
	s.enqueueUpdateLocked(p, s.exportUpdate(r), r.Prefix, 0)
}

func (s *Speaker) enqueueUpdateLocked(p *peer, u *wire.Update, prefix astypes.Prefix, span uint64) {
	if !p.enqueue(u) {
		s.teardownLocked(p)
		return
	}
	s.met.updatesOut.Inc()
	p.advertised[prefix] = struct{}{}
	if s.cfg.Trace.Enabled() {
		origin, _ := u.Attrs.ASPath.Origin()
		s.cfg.Trace.Record(trace.Event{
			Span:   span,
			Kind:   trace.KindExport,
			Detail: trace.DetailAdvertise,
			Node:   s.cfg.AS,
			Peer:   p.asn,
			Origin: origin,
			Prefix: prefix,
		})
	}
}

// teardownLocked closes a stuck peer's session on a tracked goroutine
// (session.Close joins the reader we may be running on, so it cannot
// run inline). A peer is torn down at most once, however many of its
// updates overflow. After Close has set closed, the speaker is already
// closing every session, so the duplicate teardown is skipped.
func (s *Speaker) teardownLocked(p *peer) {
	if s.closed || p.tornDown {
		return
	}
	p.tornDown = true
	s.met.teardowns.Inc()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		p.sess.Close()
	}()
}

func (s *Speaker) withdrawFromLocked(p *peer, prefix astypes.Prefix, span uint64) {
	if _, ok := p.advertised[prefix]; !ok {
		return
	}
	u := &wire.Update{Withdrawn: []astypes.Prefix{prefix}}
	if !p.enqueue(u) {
		s.teardownLocked(p)
		return
	}
	s.met.updatesOut.Inc()
	delete(p.advertised, prefix)
	if s.cfg.Trace.Enabled() {
		s.cfg.Trace.Record(trace.Event{
			Span:   span,
			Kind:   trace.KindExport,
			Detail: trace.DetailWithdrawal,
			Node:   s.cfg.AS,
			Peer:   p.asn,
			Prefix: prefix,
		})
	}
}

// Close shuts down every session and listener and waits for all speaker
// goroutines to exit.
func (s *Speaker) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	listeners := s.listeners
	sessions := make([]*session.Session, 0, len(s.peers))
	for _, p := range s.peers {
		sessions = append(sessions, p.sess)
	}
	s.mu.Unlock()
	// Closing sessions triggers HandleDown, which closes each sendQ and
	// lets writer goroutines drain out.
	for _, ln := range listeners {
		ln.Close()
	}
	for _, sess := range sessions {
		sess.Close()
	}
	s.wg.Wait()
	return nil
}
