package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/mrt"
	"repro/internal/mrt/rislive"
	"repro/internal/obs"
	"repro/internal/rib"
	"repro/internal/rpki"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/simbgp"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The shadow pipeline: the traced run replays the seed's corpora
// single-threaded through each layer's public functions, in pipeline
// order, with a span around every batch of calls. The figures are the
// layers' own costs with nothing else contending — the price list the
// budget sums and sets against the measured end-to-end cost.

// probeSample bounds how many corpus items the per-call probes replay;
// the table-sized probes (rib insert, routes-from, snapshot) always use
// the whole table.
const probeSample = 20_000

// layerCosts are the per-call costs the budget needs, in nanoseconds
// unless the name says otherwise.
type layerCosts struct {
	readMsg, encode, check, checkConflict    float64
	resolve, validate, classify              float64
	ribReplace, routesFromMS                 float64
	traceRecord, recordAlarmUS, obsLifecycle float64
	counterInc                               float64
	mrtNext, mrtEntriesPerRecord             float64
	observe, inject                          float64
	simEvent, resetMS, messagesPerRun        float64
}

// probeWireLayers prices wire, core, dnsval, rpki, rib, trace, obs and
// telemetry on the wire corpus.
func probeWireLayers(r *result, spans *spanLog, c *wireCorpus) (*layerCosts, error) {
	lc := &layerCosts{}
	n := min(probeSample, len(c.prefixes))
	root := spans.add(0, 0, "shadow.wire", sinceEpoch(time.Now()), sinceEpoch(time.Now()), 0)

	// The sampled messages: each prefix's first path change, as a source
	// would send it, and a forged origin for the same prefix.
	scratch := make([]updateScratch, 2*n)
	legit := make([]*wire.Update, n)
	forged := make([]*wire.Update, n)
	for i := 0; i < n; i++ {
		g := c.group(int32(i))
		legit[i] = c.announce(&scratch[2*i], g, 1, c.prefixes[i])
		forged[i] = c.forged(&scratch[2*i+1], g.home, forgerBase+astypes.ASN(i%forgerSpan), c.prefixes[i])
	}

	// wire: encode, decode, framed read.
	// One untimed pass first: the figures are steady-state costs, not
	// first-touch ones.
	stream := make([]byte, 0, 128*n)
	for _, u := range legit {
		if _, err := wire.AppendMessage(stream[:0], u); err != nil {
			return nil, err
		}
	}
	offsets := make([]int, 0, n+1)
	var encErr error
	lc.encode = spans.timed(root, "wire.encode", n, func() {
		for _, u := range legit {
			offsets = append(offsets, len(stream))
			if stream, encErr = wire.AppendMessage(stream, u); encErr != nil {
				return
			}
		}
	})
	if encErr != nil {
		return nil, encErr
	}
	offsets = append(offsets, len(stream))
	var dec wire.Decoder
	var decErr error
	for i := 0; i < n; i++ {
		if _, err := dec.Decode(stream[offsets[i]:offsets[i+1]]); err != nil {
			return nil, err
		}
	}
	decode := spans.timed(root, "wire.decode", n, func() {
		for i := 0; i < n; i++ {
			if _, err := dec.Decode(stream[offsets[i]:offsets[i+1]]); err != nil {
				decErr = err
				return
			}
		}
	})
	if decErr != nil {
		return nil, decErr
	}
	rd := wire.NewReader(bytes.NewReader(stream))
	lc.readMsg = spans.timed(root, "wire.read_msg", n, func() {
		for i := 0; i < n; i++ {
			if _, err := rd.ReadMessage(); err != nil {
				decErr = err
				return
			}
		}
	})
	if decErr != nil {
		return nil, decErr
	}
	r.set("wire.encode_ns", lc.encode)
	r.set("wire.decode_ns", decode)
	r.set("wire.read_msg_ns", lc.readMsg)
	r.set("wire.bytes_per_update", float64(len(stream))/float64(n))

	// core: the checker's consistent fast path and its conflict path.
	chk := core.NewChecker()
	ann := func(u *wire.Update, from astypes.ASN) core.Announcement {
		return core.Announcement{Prefix: u.NLRI[0], Path: u.Attrs.ASPath, Communities: u.Attrs.Communities, FromPeer: from}
	}
	for i, u := range legit {
		chk.Check(ann(u, peerAS[c.group(int32(i)).home]))
	}
	lc.check = spans.timed(root, "core.check", n, func() {
		for i, u := range legit {
			chk.Check(ann(u, peerAS[c.group(int32(i)).home]))
		}
	})
	lc.checkConflict = spans.timed(root, "core.check_conflict", n, func() {
		for i, u := range forged {
			chk.Check(ann(u, peerAS[c.group(int32(i)).home]))
		}
	})
	r.set("core.check_ns", lc.check)
	r.set("core.check_conflict_ns", lc.checkConflict)

	// dnsval, rpki: what the alarm path consults.
	store, roas := c.stores()
	withRec := c.withRecord
	if len(withRec) == 0 {
		return nil, errors.New("corpus has no MOASRR records")
	}
	lc.resolve = spans.timed(root, "dnsval.resolve", n, func() {
		for i := 0; i < n; i++ {
			store.ValidOrigins(c.prefixes[withRec[i%len(withRec)]])
		}
	})
	var validity rpki.Validity
	lc.validate = spans.timed(root, "rpki.validate", n, func() {
		for i := 0; i < n; i++ {
			validity = roas.Validate(c.prefixes[withRec[i%len(withRec)]], forgerBase)
		}
	})
	var class rpki.Class
	lc.classify = spans.timed(root, "rpki.classify", 16*n, func() {
		for i := 0; i < 16*n; i++ {
			class = rpki.Classify(rpki.Validity(i%3), core.VerdictConflict)
		}
	})
	runtime.KeepAlive(validity)
	runtime.KeepAlive(class)
	r.set("dnsval.resolve_ns", lc.resolve)
	r.set("rpki.validate_ns", lc.validate)
	r.set("rpki.classify_ns", lc.classify)

	// rib: the whole table in, then replace, scan and withdraw on it.
	route := func(u *wire.Update, p astypes.Prefix, from astypes.ASN) *rib.Route {
		return &rib.Route{
			Prefix: p, Path: u.Attrs.ASPath.Clone(), Origin: u.Attrs.Origin, NextHop: u.Attrs.NextHop,
			LocalPref:   rib.DefaultLocalPref,
			Communities: append([]astypes.Community(nil), u.Attrs.Communities...), FromPeer: from,
		}
	}
	heap0 := liveHeapMiB()
	var sc updateScratch
	routes := make([]*rib.Route, len(c.prefixes))
	for i, p := range c.prefixes {
		g := c.group(int32(i))
		routes[i] = route(c.announce(&sc, g, 0, p), p, peerAS[g.home])
	}
	table := rib.NewTable()
	insert := spans.timed(root, "rib.insert", len(routes), func() {
		for _, rt := range routes {
			table.UpdateOwned(rt)
		}
	})
	routes = nil
	perPrefix := (liveHeapMiB() - heap0) * (1 << 20) / float64(len(c.prefixes))
	var fromMS []float64
	for k := 0; k < 5; k++ {
		fromMS = append(fromMS, spans.timed(root, "rib.routes_from", 1, func() {
			runtime.KeepAlive(table.RoutesFrom(peerAAS))
		})/1e6)
	}
	lc.routesFromMS = median(fromMS)
	repl := make([]*rib.Route, n)
	for i := range repl {
		repl[i] = route(legit[i], c.prefixes[i], peerAS[c.group(int32(i)).home])
	}
	lc.ribReplace = spans.timed(root, "rib.replace", n, func() {
		for _, rt := range repl {
			table.UpdateOwned(rt)
		}
	})
	// Allocations per update as the speaker pays them: building the
	// owned route from decoder scratch, then the replace.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		g := c.group(int32(i))
		table.UpdateOwned(route(c.announce(&sc, g, 2, c.prefixes[i]), c.prefixes[i], peerAS[g.home]))
	}
	runtime.ReadMemStats(&ms1)
	withdraw := spans.timed(root, "rib.withdraw", n, func() {
		for i := 0; i < n; i++ {
			table.Withdraw(peerAS[c.group(int32(i)).home], c.prefixes[i])
		}
	})
	r.set("rib.insert_ns", insert)
	r.set("rib.replace_ns", lc.ribReplace)
	r.set("rib.withdraw_ns", withdraw)
	r.set("rib.routes_from_ms", lc.routesFromMS)
	r.set("rib.allocs_per_update", float64(ms1.Mallocs-ms0.Mallocs)/float64(n))
	r.set("rib.bytes_per_prefix", perPrefix)

	// trace: one ring event, and one alarm bundle against a full ring.
	rec := trace.NewRecorder(4096)
	ev := func(i int) trace.Event {
		return trace.Event{Span: uint64(i), Kind: trace.KindValidate, Detail: trace.DetailConsistent,
			Node: validatorAS, Peer: peerAAS, Origin: originBase, Prefix: c.prefixes[i%len(c.prefixes)]}
	}
	lc.traceRecord = spans.timed(root, "trace.record", 10*n, func() {
		for i := 0; i < 10*n; i++ {
			rec.Record(ev(i))
		}
	})
	bundles := min(200, n)
	lc.recordAlarmUS = spans.timed(root, "trace.record_alarm", bundles, func() {
		for i := 0; i < bundles; i++ {
			rec.RecordAlarm(c.prefixes[i], trace.AlarmBundle{
				Span: uint64(i), Node: uint32(validatorAS), FromPeer: uint32(peerBAS), Origin: forgerBase,
				Verdict: core.VerdictConflict.String(), Class: rpki.ClassLikelyHijack.String(),
				Existing: []uint32{originBase}, Received: []uint32{forgerBase},
				Path: []uint32{uint32(peerBAS), transitBase, forgerBase},
			})
		}
	}) / 1e3
	r.set("trace.record_ns", lc.traceRecord)
	r.set("trace.record_alarm_us", lc.recordAlarmUS)

	// obs: one message's stamp lifecycle — ingest, four stage crossings.
	orec := obs.NewRecorder()
	lc.obsLifecycle = spans.timed(root, "obs.stamp_lifecycle", 10*n, func() {
		for i := 0; i < 10*n; i++ {
			st := orec.Start(uint64(i))
			orec.Cross(&st, obs.StageDecode)
			orec.Cross(&st, obs.StageSession)
			orec.Cross(&st, obs.StageValidate)
			orec.Cross(&st, obs.StageRIB)
		}
	})
	r.set("obs.stamp_lifecycle_ns", lc.obsLifecycle)

	// telemetry: one counter increment.
	ctr := telemetry.NewRegistry("probe").Counter("ops_total", "probe")
	lc.counterInc = spans.timed(root, "telemetry.counter_inc", 50*n, func() {
		for i := 0; i < 50*n; i++ {
			ctr.Inc()
		}
	})
	r.set("telemetry.counter_inc_ns", lc.counterInc)

	return lc, nil
}

// nullHandler is a session.Handler that only signals receipt.
type nullHandler struct{ got chan struct{} }

func (h nullHandler) HandleUpdate(astypes.ASN, *wire.Update) { h.got <- struct{}{} }
func (nullHandler) HandleDown(astypes.ASN, error)            {}

// echoHandler sends every UPDATE it receives straight back.
type echoHandler struct{ sess **session.Session }

func (h echoHandler) HandleUpdate(_ astypes.ASN, u *wire.Update) { _ = (*h.sess).SendUpdate(u) }
func (echoHandler) HandleDown(astypes.ASN, error)                {}

// probeSession measures one UPDATE's round trip between two sessions
// over loopback with handlers that do nothing else: the floor under
// every wire latency.
func probeSession(r *result, spans *spanLog, c *wireCorpus) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var far *session.Session
	accepted := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			accepted <- err
			return
		}
		s, err := session.Establish(conn, session.Config{LocalAS: validatorAS, LocalID: 1, Handler: echoHandler{&far}})
		far = s
		accepted <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	got := make(chan struct{}, 1)
	near, err := session.Establish(conn, session.Config{LocalAS: peerAAS, LocalID: 2, Handler: nullHandler{got}})
	if err != nil {
		return err
	}
	defer near.Close()
	if err := <-accepted; err != nil {
		return err
	}
	defer far.Close()
	var sc updateScratch
	u := c.announce(&sc, c.group(0), 1, c.prefixes[0])
	const trips = 2000
	rtt := make([]float64, 0, trips)
	root := spans.add(0, 0, "shadow.session", sinceEpoch(time.Now()), sinceEpoch(time.Now()), 0)
	for i := 0; i < trips; i++ {
		t0 := time.Now()
		if err := near.SendUpdate(u); err != nil {
			return err
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			return errors.New("session round trip timed out")
		}
		d := time.Since(t0)
		rtt = append(rtt, float64(d))
		if i%spanSampleEvery == 0 {
			spans.add(root, uint64(i), "session.roundtrip", sinceEpoch(t0), sinceEpoch(t0.Add(d)), 1)
		}
	}
	r.set("session.roundtrip_ns", median(rtt))
	return nil
}

// probeFeedLayers prices mrt, rislive, monitor and collector on the feed
// corpus: the archive through the reader, the first probeSample lines
// of the stream through the decoder and the decoded updates through a
// fresh collector and monitor, and one snapshot of the collector the
// last full replay left behind.
func probeFeedLayers(r *result, spans *spanLog, fc *feedCorpus, last *feedSink) (*layerCosts, error) {
	lc := &layerCosts{}
	root := spans.add(0, 0, "shadow.feed", sinceEpoch(time.Now()), sinceEpoch(time.Now()), 0)
	rd, err := mrt.NewReader(bytes.NewReader(fc.archive))
	if err != nil {
		return nil, err
	}
	var malformed uint64
	t0 := time.Now()
	for {
		_, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			if mrt.IsTerminal(err) {
				return nil, err
			}
			malformed++
		}
	}
	el := time.Since(t0)
	stats := rd.Stats()
	spans.add(root, 0, "mrt.next", sinceEpoch(t0), sinceEpoch(t0.Add(el)), int(stats.Records))
	lc.mrtNext = float64(el) / float64(stats.Records)
	lc.mrtEntriesPerRecord = float64(fc.ribEntries+fc.updateEntries) / float64(stats.Records)
	r.set("mrt.next_ns", lc.mrtNext)
	r.set("mrt.mib_per_s", float64(len(fc.archive))/(1<<20)/el.Seconds())
	r.set("mrt.malformed", float64(malformed))

	lines := bytes.SplitAfter(fc.ndjson, []byte("\n"))
	n := min(probeSample, len(lines)-1)
	events := make([]*rislive.Event, 0, n)
	var decErr error
	decode := spans.timed(root, "rislive.decode", n, func() {
		for _, l := range lines[:n] {
			ev, err := rislive.Decode(bytes.TrimSuffix(l, []byte("\n")))
			if err != nil {
				decErr = err
				return
			}
			events = append(events, ev)
		}
	})
	if decErr != nil {
		return nil, decErr
	}
	r.set("rislive.decode_ns", decode)

	// monitor, collector: per entry (announced or withdrawn prefix) of
	// the decoded updates, in the order the stream consumer calls them.
	entries := 0
	for _, ev := range events {
		entries += len(ev.Update.NLRI) + len(ev.Update.Withdrawn)
	}
	fs := newFeedSink(fc.roas)
	defer fs.col.Close()
	lc.inject = spans.timed(root, "collector.inject", entries, func() {
		for _, ev := range events {
			fs.col.Inject(ev.PeerASN, &ev.Update)
		}
	})
	lc.observe = spans.timed(root, "monitor.observe", entries, func() {
		for _, ev := range events {
			fs.mon.ObserveUpdate("ris:"+ev.Host, &ev.Update)
		}
	})
	snap := spans.timed(root, "collector.snapshot", 1, func() {
		runtime.KeepAlive(last.col.Snapshot(time.Unix(1_000_000_000, 0)))
	}) / 1e6
	r.set("monitor.observe_ns", lc.observe)
	r.set("collector.inject_ns", lc.inject)
	r.set("collector.snapshot_ms", snap)
	return lc, nil
}

// selfScheduler is the sim.Dispatcher of the event-engine probe: each
// event schedules its successor, as a delivered BGP message does.
type selfScheduler struct {
	e    *sim.Engine
	left int
}

func (d *selfScheduler) Dispatch(ev sim.Typed) {
	if d.left > 0 {
		d.left--
		d.e.ScheduleTyped(time.Millisecond, ev)
	}
}

// probeSimLayers prices sim, simbgp, experiment and topology. The
// simbgp figures are always taken on a 10k-AS power-law topology (or
// nodes, for the toy run).
func probeSimLayers(r *result, spans *spanLog, seed int64, nodes int) (*layerCosts, error) {
	lc := &layerCosts{}
	root := spans.add(0, 0, "shadow.sim", sinceEpoch(time.Now()), sinceEpoch(time.Now()), 0)

	const events = 500_000
	eng := sim.NewEngine()
	d := &selfScheduler{e: eng, left: events}
	eng.SetDispatcher(d)
	eng.SetEventLimit(events + 16)
	var runErr error
	lc.simEvent = spans.timed(root, "sim.event", events, func() {
		eng.ScheduleTyped(0, sim.Typed{Kind: 1, A: 2, B: 3})
		runErr = eng.Run()
	})
	if runErr != nil {
		return nil, runErr
	}
	r.set("sim.event_ns", lc.simEvent)

	var topo *topology.SampleResult
	var genErr error
	gen := spans.timed(root, "topology.powerlaw", 1, func() {
		topo, genErr = topology.GeneratePowerLaw(topology.DefaultPowerLawParams(nodes), seed)
	})
	if genErr != nil {
		return nil, genErr
	}
	r.set("topology.powerlaw_10k_ms", gen/1e6)

	// One hijack to convergence, as the simbgp scale benchmark runs it:
	// a stub originates, every other AS detects, a distant stub forges.
	stubs := topo.StubASes()
	if len(stubs) < 2 {
		return nil, errors.New("topology has fewer than two stubs")
	}
	origin, attacker := stubs[0], astypes.ASNNone
	nbr := make(map[astypes.ASN]bool)
	for _, p := range topo.Graph.Neighbors(origin) {
		nbr[p] = true
	}
	for _, s := range stubs[1:] {
		if !nbr[s] {
			attacker = s
			break
		}
	}
	if attacker == astypes.ASNNone {
		return nil, errors.New("no stub far enough from the victim to attack")
	}
	victim := astypes.MustPrefix(0x83b30000, 16)
	valid := core.NewList(origin)
	cfg := simbgp.Config{Topology: topo.Graph, Resolver: simbgp.ResolverFunc(func(p astypes.Prefix) (core.List, bool) {
		return valid, p == victim
	})}
	heap0 := liveHeapMiB()
	netw, err := simbgp.NewNetwork(cfg)
	if err != nil {
		return nil, err
	}
	var resetMS, convergeMS []float64
	for k := 0; k < 4; k++ {
		resetMS = append(resetMS, spans.timed(root, "simbgp.reset", 1, func() { err = netw.Reset(cfg) })/1e6)
		if err != nil {
			return nil, err
		}
		conv := spans.timed(root, "simbgp.converge", 1, func() {
			for _, asn := range netw.Nodes() {
				if asn != attacker {
					if err = netw.SetMode(asn, simbgp.ModeDetect); err != nil {
						return
					}
				}
			}
			if err = netw.Originate(origin, victim, core.List{}); err != nil {
				return
			}
			if err = netw.Run(); err != nil {
				return
			}
			if err = netw.OriginateInvalid(attacker, victim, core.List{}); err != nil {
				return
			}
			err = netw.Run()
		}) / 1e6
		if err != nil {
			return nil, err
		}
		if k > 0 { // the first pass warms the intern tables and event pools
			convergeMS = append(convergeMS, conv)
		}
	}
	lc.resetMS = median(resetMS)
	lc.messagesPerRun = float64(netw.MessageCount())
	stateBytes := (liveHeapMiB() - heap0) * (1 << 20) / float64(nodes)
	runtime.KeepAlive(netw)
	r.set("simbgp.converge_10k_ms", median(convergeMS))
	r.set("simbgp.reset_ms", lc.resetMS)
	r.set("simbgp.messages_per_run", lc.messagesPerRun)
	r.set("simbgp.state_bytes_per_node", stateBytes)

	// experiment: one pass of each paper figure's sweeps.
	set, err := topology.BuildPaperTopologies(seed)
	if err != nil {
		return nil, err
	}
	figS := map[string]float64{}
	for _, s := range paperSpecs(set, seed, true) {
		_, durs, _, err := sweepOnce([]sweepSpec{s}, spans, root)
		if err != nil {
			return nil, err
		}
		figS[s.figure] += durs[0].Seconds()
	}
	r.set("experiment.fig9_s", figS["fig9"])
	r.set("experiment.fig10_s", figS["fig10"])
	r.set("experiment.fig11_s", figS["fig11"])
	return lc, nil
}
