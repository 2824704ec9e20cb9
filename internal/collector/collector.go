// Package collector implements a Route-Views-style route collector: a
// passive BGP speaker that peers with operational speakers, never
// advertises anything, and periodically snapshots its Adj-RIB-Ins as
// routegen table dumps, archived as MRT. It is the live-plane
// source for the measurement pipeline (internal/measure) and the
// off-line monitor (internal/monitor) — the role the Oregon RouteViews
// server plays for the paper (§3.1, §5.1).
//
// The collector owns its monitor (Config.Monitor): every UPDATE it
// takes, from a peering, an MRT replay (ReplayMRT) or RIS-Live
// (ConsumeRISLive), is observed exactly once, when it arrives.
package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/astypes"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/routegen"
	"repro/internal/session"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// CollectorASN is the collector's own AS, the conventional one of a
// route collector's peer point (Route Views uses AS 6447). Its
// peerings run the session's default hold time.
const CollectorASN astypes.ASN = 6447

// Config parameterizes a Collector.
type Config struct {
	// RouterID identifies the collector in OPENs.
	RouterID uint32
	// Telemetry, if set, is the registry the collector (and its
	// sessions and archiver) instruments itself on; nil creates a
	// private "moas" registry.
	Telemetry *telemetry.Registry
	// Trace, if set, is the flight recorder the collector's sessions
	// record message-received events on.
	Trace *trace.Recorder
	// Obs, if set, records per-stage detection latency: sessions stamp
	// ingest at the wire reader and the collector crosses the RIB stage
	// after mirroring each UPDATE.
	Obs *obs.Recorder
	// Monitor, if set, observes every UPDATE the collector takes, once,
	// right after it is mirrored: peerings under the vantage
	// "collector", RIS-Live events under "ris:<host>", and MRT replays
	// under the caller's vantage.
	Monitor *monitor.Monitor
}

// peeringVantage is the monitor vantage of UPDATEs from the collector's
// BGP peerings.
const peeringVantage = "collector"

// metrics is the collector's instrumentation.
type metrics struct {
	updatesIn     *telemetry.Counter
	withdrawalsIn *telemetry.Counter
	peers         *telemetry.Gauge
	snapshots     *telemetry.Counter
	session       *session.Metrics
}

func newMetrics(r *telemetry.Registry) *metrics {
	return &metrics{
		updatesIn: r.Counter("collector_updates_in_total",
			"UPDATE messages ingested from peers."),
		withdrawalsIn: r.Counter("collector_withdrawals_in_total",
			"Withdrawn prefixes ingested."),
		peers: r.Gauge("collector_peers",
			"Connected peer sessions."),
		snapshots: r.Counter("collector_snapshots_total",
			"Table snapshots assembled."),
		session: session.NewMetrics(r),
	}
}

// route is the collector's view of one announcement from one peer: its
// AS path and communities packed into one immutable string (packRoute),
// which every NLRI of the UPDATE that carried it shares.
type route string

// peerTable mirrors one peer's announcements.
type peerTable struct {
	routes map[astypes.Prefix]route
	// last is the route the peer's latest announcing UPDATE stored, for
	// the next one to share when it carries the same route.
	last route
}

// Collector is a passive multi-peer route archive.
type Collector struct {
	cfg Config
	reg *telemetry.Registry
	met *metrics

	mu    sync.Mutex
	peers map[astypes.ASN]*peering // guarded by mu
	// rib[peer].routes[prefix] mirrors each peer's announcements.
	// Guarded by mu.
	rib map[astypes.ASN]*peerTable
	// pack is mirror's scratch for packing a route. Guarded by mu.
	pack      []byte
	snapshots int  // guarded by mu
	closed    bool // guarded by mu

	wg        sync.WaitGroup
	listeners []net.Listener
}

// New builds a collector.
func New(cfg Config) *Collector {
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry("moas")
	}
	return &Collector{
		cfg:   cfg,
		reg:   reg,
		met:   newMetrics(reg),
		peers: make(map[astypes.ASN]*peering),
		rib:   make(map[astypes.ASN]*peerTable),
	}
}

// peering is one peer session and the session.Handler it reports to.
// Each connection gets its own, so a session that goes down can tell
// whether it is the one registered for its AS.
type peering struct {
	c    *Collector
	sess *session.Session // set on registration; guarded by c.mu
	down bool             // the session has gone down; guarded by c.mu
}

// HandleUpdate implements session.Handler. Sessions deliver through
// HandleUpdateStamp; this path has no stamp.
func (p *peering) HandleUpdate(asn astypes.ASN, u *wire.Update) {
	p.c.ingest(peeringVantage, asn, u, nil)
}

// HandleUpdateStamp is the stage-timed delivery path: the RIB-mirror
// stage crossing lands in the collector's obs recorder.
func (p *peering) HandleUpdateStamp(asn astypes.ASN, u *wire.Update, st *obs.Stamp) {
	p.c.ingest(peeringVantage, asn, u, st)
}

// ingest mirrors one UPDATE from peer into the RIB, crosses the RIB
// stage, and has the monitor, if any, observe it under vantage.
func (c *Collector) ingest(vantage string, peer astypes.ASN, u *wire.Update, st *obs.Stamp) {
	c.mirror(peer, u)
	c.cfg.Obs.Cross(st, obs.StageRIB)
	if c.cfg.Monitor != nil {
		c.cfg.Monitor.ObserveUpdateFrom(vantage, peer, u, st)
	}
}

// mirror applies one UPDATE from peer AS asn to the collector's RIB.
// A route is stored once for as long as it stays unchanged: an NLRI
// keeps the string it holds when the UPDATE re-announces the same
// route, and otherwise shares the peer's last stored route when that is
// the same, so only a route the peer has not just sent allocates.
func (c *Collector) mirror(asn astypes.ASN, u *wire.Update) {
	c.met.updatesIn.Inc()
	c.met.withdrawalsIn.Add(uint64(len(u.Withdrawn)))
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.rib[asn]
	if t == nil {
		t = &peerTable{routes: make(map[astypes.Prefix]route)}
		c.rib[asn] = t
	}
	for _, w := range u.Withdrawn {
		delete(t.routes, w)
	}
	if len(u.NLRI) == 0 {
		return
	}
	c.pack = packRoute(c.pack[:0], u.Attrs.ASPath, u.Attrs.Communities)
	for _, prefix := range u.NLRI {
		if cur, ok := t.routes[prefix]; ok && string(cur) == string(c.pack) {
			t.last = cur
			continue
		}
		if string(t.last) != string(c.pack) {
			t.last = route(c.pack)
		}
		t.routes[prefix] = t.last
	}
}

// packRoute appends the packed form of a route to dst: a uvarint
// segment count; per segment its type octet, a uvarint ASN count and
// the ASNs as 4 big-endian octets each; then each community as 4
// big-endian octets. Unlike the wire AS_PATH codec it caps neither a
// segment's length nor an ASN's width.
func packRoute(dst []byte, path astypes.ASPath, comms []astypes.Community) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(path.Segments)))
	for _, seg := range path.Segments {
		dst = append(dst, byte(seg.Type))
		dst = binary.AppendUvarint(dst, uint64(len(seg.ASNs)))
		for _, a := range seg.ASNs {
			dst = binary.BigEndian.AppendUint32(dst, uint32(a))
		}
	}
	for _, cm := range comms {
		dst = binary.BigEndian.AppendUint32(dst, uint32(cm))
	}
	return dst
}

// unpack returns the route's path and communities in fresh slices, as
// ASPath.Clone and a copy of the communities would: no segments is the
// zero ASPath, an empty segment has a non-nil empty ASN slice, and no
// communities is nil.
func (r route) unpack() (astypes.ASPath, []astypes.Community) {
	b := []byte(r)
	nsegs, n := binary.Uvarint(b)
	b = b[n:]
	var path astypes.ASPath
	if nsegs > 0 {
		path.Segments = make([]astypes.Segment, nsegs)
	}
	for k := range path.Segments {
		seg := &path.Segments[k]
		seg.Type = astypes.SegmentType(b[0])
		nasns, n := binary.Uvarint(b[1:])
		b = b[1+n:]
		seg.ASNs = make([]astypes.ASN, nasns)
		for j := range seg.ASNs {
			seg.ASNs[j] = astypes.ASN(binary.BigEndian.Uint32(b[4*j:]))
		}
		b = b[4*nasns:]
	}
	var comms []astypes.Community
	if len(b) > 0 {
		comms = make([]astypes.Community, len(b)/4)
		for j := range comms {
			comms[j] = astypes.Community(binary.BigEndian.Uint32(b[4*j:]))
		}
	}
	return path, comms
}

// Inject feeds one UPDATE into the collector's RIB as if peer had sent
// it over a session, without the monitor: the entry point for a caller
// that checks the update with its own monitor. The update is packed on
// ingest, so u may alias decoder scratch.
func (c *Collector) Inject(peer astypes.ASN, u *wire.Update) {
	c.mirror(peer, u)
}

// HandleDown implements session.Handler. Only the registered session
// of an AS owns its peering: a rejected duplicate going down leaves the
// established peer and its routes alone.
func (p *peering) HandleDown(asn astypes.ASN, err error) {
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	p.down = true
	if c.peers[asn] != p {
		return
	}
	c.met.peers.Dec()
	delete(c.peers, asn)
	delete(c.rib, asn)
}

// AddPeerConn runs the BGP handshake on conn and starts collecting from
// the peer. The collector accepts any peer AS.
func (c *Collector) AddPeerConn(conn net.Conn) (astypes.ASN, error) {
	p := &peering{c: c}
	sess, err := session.Establish(conn, session.Config{
		LocalAS: CollectorASN,
		LocalID: c.cfg.RouterID,
		Handler: p,
		Metrics: c.met.session,
		Trace:   c.cfg.Trace,
		Obs:     c.cfg.Obs,
	})
	if err != nil {
		return astypes.ASNNone, fmt.Errorf("collector: establish: %w", err)
	}
	got := sess.PeerAS()
	c.mu.Lock()
	switch _, dup := c.peers[got]; {
	case c.closed:
		err = errors.New("collector closed")
	case dup:
		err = fmt.Errorf("collector: duplicate peer AS %s", got)
	case p.down:
		err = fmt.Errorf("collector: session with AS %s went down during setup", got)
	default:
		p.sess = sess
		c.peers[got] = p
		c.met.peers.Inc()
	}
	c.mu.Unlock()
	if err != nil {
		// Outside mu: Close waits for the read loop, whose HandleDown
		// takes mu.
		sess.Close()
		return astypes.ASNNone, err
	}
	return got, nil
}

// Listen accepts inbound peerings until the collector is closed.
func (c *Collector) Listen(ln net.Listener) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return
	}
	c.listeners = append(c.listeners, ln)
	// Add while still holding mu with closed false: Close sets closed
	// under mu before it Waits, so the Add cannot race the Wait.
	c.wg.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				if _, err := c.AddPeerConn(conn); err != nil {
					conn.Close()
				}
			}()
		}
	}()
}

// Peers returns the connected peer ASNs in ascending order.
func (c *Collector) Peers() []astypes.ASN {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]astypes.ASN, 0, len(c.peers))
	for a := range c.peers {
		out = append(out, a)
	}
	return astypes.SortASNs(out)
}

// Snapshot assembles the current multi-peer view as one table dump, the
// same routegen.Dump the synthetic series uses: one entry per (peer,
// prefix) announcement. Day numbers count snapshots taken.
func (c *Collector) Snapshot(at time.Time) *routegen.Dump {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := &routegen.Dump{Day: c.snapshots, Date: at}
	c.snapshots++
	c.met.snapshots.Inc()
	peerASNs := make([]astypes.ASN, 0, len(c.rib))
	for a := range c.rib {
		peerASNs = append(peerASNs, a)
	}
	astypes.SortASNs(peerASNs)
	for _, peer := range peerASNs {
		routes := c.rib[peer].routes
		prefixes := make([]astypes.Prefix, 0, len(routes))
		for p := range routes {
			prefixes = append(prefixes, p)
		}
		sortPrefixes(prefixes)
		for _, prefix := range prefixes {
			path, comms := routes[prefix].unpack()
			d.Entries = append(d.Entries, routegen.Entry{Prefix: prefix, Path: path, Communities: comms})
		}
	}
	return d
}

// RoutesFrom returns the collector's view of one peer's table: prefix
// to AS path, copied.
func (c *Collector) RoutesFrom(peer astypes.ASN) map[astypes.Prefix]astypes.ASPath {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.rib[peer]
	if t == nil {
		return map[astypes.Prefix]astypes.ASPath{}
	}
	out := make(map[astypes.Prefix]astypes.ASPath, len(t.routes))
	for p, r := range t.routes {
		out[p], _ = r.unpack()
	}
	return out
}

// Close tears down all sessions and listeners.
func (c *Collector) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	listeners := c.listeners
	sessions := make([]*session.Session, 0, len(c.peers))
	for _, p := range c.peers {
		sessions = append(sessions, p.sess)
	}
	c.mu.Unlock()
	for _, ln := range listeners {
		ln.Close()
	}
	for _, s := range sessions {
		s.Close()
	}
	c.wg.Wait()
	return nil
}

func sortPrefixes(ps []astypes.Prefix) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
}
