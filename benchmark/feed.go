package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/astypes"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/mrt"
	"repro/internal/mrt/rislive"
	"repro/internal/obs"
	"repro/internal/rpki"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

type feedSizes struct {
	prefixes int // TABLE_DUMP_V2 prefixes, each with one entry per peer
	updates  int // BGP4MP updates, and the same stream as NDJSON lines
	setups   int
	bucket   time.Duration
}

var fullFeed = feedSizes{prefixes: 150_000, updates: 300_000, setups: 3, bucket: 250 * time.Millisecond}
var toyFeed = feedSizes{prefixes: 1_000, updates: 3_000, setups: 1, bucket: 20 * time.Millisecond}

const (
	feedPeers     = 3
	feedGroupSize = 4
	feedLocalAS   = collector.CollectorASN
)

var feedPeerAS = [feedPeers]astypes.ASN{3001, 3002, 3003}

// feedGroup is the attribute set feedGroupSize consecutive prefixes
// share at every peer.
type feedGroup struct {
	origin  astypes.ASN
	origin2 astypes.ASN // nonzero: a legitimate MOAS group, peer 2 announces origin2, all carry the list
	mids    []astypes.ASN
	comms   []astypes.Community
}

// refAlarm is one alarm the reference expects, in stream order.
type refAlarm struct {
	update  int
	prefix  astypes.Prefix
	origin  astypes.ASN
	verdict core.Verdict
}

// feedCorpus is one seeded archive in both formats plus the oracle's
// answer: the exact alarm sequence either ingest path must raise over
// the update stream.
type feedCorpus struct {
	archive []byte // TABLE_DUMP_V2 dump, then the BGP4MP update stream
	ndjson  []byte // the same update stream as RIS-Live lines
	// lineEnd[k] is the offset just past line k of ndjson.
	lineEnd []int
	roas    *rpki.Store
	alarms  []refAlarm

	ribEntries, updateEntries int
	updates                   int
}

// listKey is a MOAS list of at most two origins, sorted, comparable.
type listKey [2]astypes.ASN

func keyOf(a, b astypes.ASN) listKey {
	if b != 0 && b < a {
		a, b = b, a
	}
	return listKey{a, b}
}

func newFeedCorpus(seed int64, sz feedSizes) (*feedCorpus, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := sz.prefixes - sz.prefixes%feedGroupSize
	prefixes := nonOverlappingPrefixes(rng, n)
	groups := make([]feedGroup, n/feedGroupSize)
	fc := &feedCorpus{roas: rpki.NewStore(), updates: sz.updates}
	for gi := range groups {
		g := &groups[gi]
		g.origin = astypes.ASN(originBase + rng.Intn(originSpan))
		if rng.Intn(100) < 3 {
			for g.origin2 == 0 || g.origin2 == g.origin {
				g.origin2 = astypes.ASN(originBase + rng.Intn(originSpan))
			}
			g.comms = core.NewList(g.origin, g.origin2).Communities()
		}
		g.mids = make([]astypes.ASN, 1+rng.Intn(3))
		for k := range g.mids {
			g.mids[k] = astypes.ASN(transitBase + rng.Intn(transitSpan))
		}
		if rng.Intn(100) < 50 {
			g.comms = append(g.comms, astypes.NewCommunity(g.mids[0], uint16(rng.Intn(1000))))
		}
		if rng.Intn(100) < 30 {
			for k := 0; k < feedGroupSize; k++ {
				p := prefixes[gi*feedGroupSize+k]
				fc.roas.Add(rpki.ROA{Prefix: p, Origin: g.origin})
				if g.origin2 != 0 {
					fc.roas.Add(rpki.ROA{Prefix: p, Origin: g.origin2})
				}
			}
		}
	}
	// originAt is the origin peer announces for a group's prefixes.
	originAt := func(g *feedGroup, peer int) astypes.ASN {
		if g.origin2 != 0 && peer == feedPeers-1 {
			return g.origin2
		}
		return g.origin
	}
	pathOf := func(g *feedGroup, peer int, variant int, origin astypes.ASN) astypes.ASPath {
		asns := make([]astypes.ASN, 0, 3+len(g.mids))
		asns = append(asns, feedPeerAS[peer], astypes.ASN(variantBase+variant%variantSpan))
		asns = append(asns, g.mids...)
		return astypes.NewSeqPath(append(asns, origin)...)
	}

	// Both buffers are reserved at more than any seed needs: grown on
	// demand, a seed whose stream happens to cross a power of two would
	// pay one more 64 MiB reallocation in set-up than its neighbour.
	var ar, nd bytes.Buffer
	ar.Grow(160*sz.prefixes + 160*sz.updates)
	nd.Grow(400 * sz.updates)
	w := mrt.NewWriter(&ar)
	t0 := time.Unix(1_000_000_000, 0)
	peers := make([]mrt.Peer, feedPeers)
	for p := range peers {
		peers[p] = mrt.Peer{BGPID: uint32(p + 1), IP: 0x0a000001 + uint32(p), AS: uint32(feedPeerAS[p])}
	}
	if err := w.WritePeerIndex(t0, 6447, "bench", peers); err != nil {
		return nil, err
	}
	entries := make([]mrt.RIBEntry, feedPeers)
	for i, p := range prefixes {
		g := &groups[i/feedGroupSize]
		for peer := range entries {
			entries[peer] = mrt.RIBEntry{
				PeerIndex: uint16(peer), Originated: uint32(t0.Unix()), Origin: wire.OriginIGP,
				Path: pathOf(g, peer, 0, originAt(g, peer)), NextHop: peers[peer].IP, Communities: g.comms,
			}
		}
		if err := w.WriteRIB(t0, uint32(i), p, entries); err != nil {
			return nil, err
		}
		fc.ribEntries += feedPeers
	}

	// The update stream. Conflicts and withdrawals only ever target a
	// prefix a legitimate announcement earlier in the stream has touched,
	// so the alarm sequence is the same whether the monitor first saw the
	// table dump (MRT phase) or starts empty (RIS-Live phase).
	state := make(map[int32]listKey)
	var touched []int32
	isTouched := make([]bool, n)
	for u := 0; u < sz.updates; u++ {
		ts := t0.Add(time.Duration(u+1) * time.Second)
		peer := rng.Intn(feedPeers)
		var up wire.Update
		kind := rng.Intn(100)
		if len(touched) < 64 {
			kind = 50 // legitimate until there is something to conflict with
		}
		switch {
		case kind < 1: // two-origin conflict: a forger announces a touched prefix with no list
			i := touched[rng.Intn(len(touched))]
			forger := astypes.ASN(forgerBase + rng.Intn(forgerSpan))
			up.Attrs.ASPath = astypes.NewSeqPath(feedPeerAS[peer], transitBase+3, forger)
			up.NLRI = []astypes.Prefix{prefixes[i]}
			eff := keyOf(forger, 0)
			if have, ok := state[i]; ok && have != eff {
				fc.alarms = append(fc.alarms, refAlarm{u, prefixes[i], forger, core.VerdictConflict})
			} else if !ok {
				state[i] = eff
			}
		case kind < 11: // withdrawal: the monitor forgets the prefix
			for k := 1 + rng.Intn(2); k > 0; k-- {
				i := touched[rng.Intn(len(touched))]
				up.Withdrawn = append(up.Withdrawn, prefixes[i])
				delete(state, i)
			}
		default: // legitimate re-announcement of 1–3 prefixes of one group
			gi := rng.Intn(len(groups))
			g := &groups[gi]
			origin := originAt(g, peer)
			up.Attrs.ASPath = pathOf(g, peer, 1+u, origin)
			up.Attrs.Communities = g.comms
			eff := keyOf(g.origin, g.origin2)
			first := rng.Intn(feedGroupSize)
			for k := 0; k < 1+rng.Intn(3) && first+k < feedGroupSize; k++ {
				i := int32(gi*feedGroupSize + first + k)
				up.NLRI = append(up.NLRI, prefixes[i])
				if have, ok := state[i]; ok && have != eff {
					fc.alarms = append(fc.alarms, refAlarm{u, prefixes[i], origin, core.VerdictConflict})
				} else if !ok {
					state[i] = eff
				}
				if !isTouched[i] {
					isTouched[i] = true
					touched = append(touched, i)
				}
			}
		}
		if len(up.NLRI) > 0 {
			up.Attrs.HasOrigin, up.Attrs.Origin = true, wire.OriginIGP
			up.Attrs.HasNextHop, up.Attrs.NextHop = true, peers[peer].IP
		}
		fc.updateEntries += len(up.NLRI) + len(up.Withdrawn)
		if err := w.WriteUpdate(ts, feedPeerAS[peer], feedLocalAS, peers[peer].IP, 0x0a0000fe, &up); err != nil {
			return nil, err
		}
		appendRISLine(&nd, ts, peer, peers[peer].IP, &up)
		fc.lineEnd = append(fc.lineEnd, nd.Len())
	}
	fc.archive = ar.Bytes()
	fc.ndjson = nd.Bytes()
	return fc, nil
}

func appendIPv4(b []byte, ip uint32) []byte {
	for s := 24; s >= 0; s -= 8 {
		b = strconv.AppendUint(b, uint64(ip>>uint(s)&0xff), 10)
		if s > 0 {
			b = append(b, '.')
		}
	}
	return b
}

func appendPrefixList(b []byte, ps []astypes.Prefix) []byte {
	b = append(b, '[')
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = appendIPv4(b, p.Addr)
		b = append(b, '/')
		b = strconv.AppendUint(b, uint64(p.Len), 10)
		b = append(b, '"')
	}
	return append(b, ']')
}

// appendRISLine writes one update as a RIS-Live ris_message line.
func appendRISLine(buf *bytes.Buffer, ts time.Time, peer int, ip uint32, u *wire.Update) {
	b := buf.AvailableBuffer()
	b = append(b, `{"type":"ris_message","data":{"timestamp":`...)
	b = strconv.AppendInt(b, ts.Unix(), 10)
	b = append(b, `.00,"peer":"`...)
	b = appendIPv4(b, ip)
	b = append(b, `","peer_asn":"`...)
	b = strconv.AppendUint(b, uint64(feedPeerAS[peer]), 10)
	b = append(b, `","id":"bench-`...)
	b = strconv.AppendInt(b, ts.Unix(), 10)
	b = append(b, `","host":"rrc00","type":"UPDATE"`...)
	if len(u.NLRI) > 0 {
		b = append(b, `,"path":[`...)
		for i, a := range u.Attrs.ASPath.Segments[0].ASNs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(a), 10)
		}
		b = append(b, `],"community":[`...)
		for i, c := range u.Attrs.Communities {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendUint(b, uint64(c.ASN()), 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, uint64(c.Value()), 10)
			b = append(b, ']')
		}
		b = append(b, `],"origin":"igp","announcements":[{"next_hop":"`...)
		b = appendIPv4(b, ip)
		b = append(b, `","prefixes":`...)
		b = appendPrefixList(b, u.NLRI)
		b = append(b, `}]`...)
	}
	if len(u.Withdrawn) > 0 {
		b = append(b, `,"withdrawals":`...)
		b = appendPrefixList(b, u.Withdrawn)
	}
	b = append(b, "}}\n"...)
	buf.Write(b)
}

// feedSink is one fresh monitor + collector pair wired as
// cmd/moas-collector wires them: shared registry and observatory, ROV
// cross-validation on, no flight recorder (its flag defaults to off).
type feedSink struct {
	reg *telemetry.Registry
	obs *obs.Recorder
	col *collector.Collector
	mon *monitor.Monitor
}

func newFeedSink(roas *rpki.Store) *feedSink {
	reg := telemetry.NewRegistry("moas")
	telemetry.RegisterBuildInfo(reg)
	obsRec := obs.NewRecorder()
	return &feedSink{
		reg: reg, obs: obsRec,
		col: collector.New(collector.Config{RouterID: 6447, Telemetry: reg, Obs: obsRec}),
		mon: monitor.New(monitor.WithTelemetry(reg), monitor.WithObs(obsRec), monitor.WithRPKI(roas)),
	}
}

// checkAlarms compares the monitor's alarms with the reference
// sequence and returns how many positions differ.
func (fc *feedCorpus) checkAlarms(got []monitor.Alarm) int64 {
	var bad int64
	for i := 0; i < len(got) || i < len(fc.alarms); i++ {
		if i >= len(got) || i >= len(fc.alarms) {
			bad++
			continue
		}
		g, w := got[i].Conflict, fc.alarms[i]
		if g.Prefix != w.prefix || g.Origin != w.origin || g.Verdict != w.verdict {
			bad++
		}
	}
	return bad
}

// replayMRT is cmd/moas-collector's replayMRT on an in-memory archive:
// the monitor ingests every record and the hook mirrors it into the
// collector RIB.
func replayMRT(fs *feedSink, archive io.Reader, perRecord func()) (monitor.ReplayResult, error) {
	var inject wire.Update
	return fs.mon.ReplayMRTFunc("mrt:bench", archive, func(rec *mrt.Record) {
		if perRecord != nil {
			perRecord()
		}
		switch rec.Kind {
		case mrt.KindRIB:
			for i := range rec.Entries {
				e := &rec.Entries[i]
				inject = wire.Update{NLRI: []astypes.Prefix{rec.Prefix}}
				inject.Attrs.ASPath = e.Path
				inject.Attrs.Communities = e.Communities
				inject.Attrs.HasOrigin = true
				inject.Attrs.Origin = e.Origin
				inject.Attrs.HasNextHop = true
				inject.Attrs.NextHop = e.NextHop
				fs.col.Inject(e.PeerAS, &inject)
			}
		case mrt.KindMessage:
			if rec.Update != nil {
				fs.col.Inject(rec.PeerAS, rec.Update)
			}
		}
	})
}

// stampReader hands the NDJSON stream to the stage and remembers when
// each chunk left, so an alarm can be timed from the moment its line
// was handed over.
type stampReader struct {
	r  *bytes.Reader
	mu sync.Mutex
	// ends[i] is the stream offset just past read i, at[i] when it returned.
	ends []int
	at   []int64
	off  int
}

func (s *stampReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if n > 0 {
		s.mu.Lock()
		s.off += n
		s.ends = append(s.ends, s.off)
		s.at = append(s.at, sinceEpoch(time.Now()))
		s.mu.Unlock()
	}
	return n, err
}

// handedAt returns when the byte at offset end-1 was handed over;
// cursor is the caller's monotone position in the read log.
func (s *stampReader) handedAt(end int, cursor *int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for *cursor < len(s.ends)-1 && s.ends[*cursor] < end {
		*cursor++
	}
	return s.at[*cursor]
}

// streamOut is what one RIS-Live replay measured.
type streamOut struct {
	events  uint64
	detect  []int64
	counts  rislive.Counters
	elapsed time.Duration
}

// replayRISLive runs the NDJSON stream through a rislive.Stage (block
// policy, default buffer) and the consumer loop cmd/moas-collector
// runs: collector.Inject then monitor.ObserveUpdateStamp.
func replayRISLive(fs *feedSink, fc *feedCorpus, meter *rateMeter) (streamOut, error) {
	var out streamOut
	stage := rislive.NewStage(rislive.Config{Registry: fs.reg, Obs: fs.obs})
	src := &stampReader{r: bytes.NewReader(fc.ndjson)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	start := time.Now()
	go func() { errc <- stage.RunReader(ctx, src) }()
	cursor := 0
	for ev := range stage.Events() {
		alarmsBefore := fs.obs.StageCount(obs.StageAlarm)
		fs.obs.Cross(&ev.Stamp, obs.StageSession)
		fs.col.Inject(ev.PeerASN, &ev.Update)
		fs.obs.Cross(&ev.Stamp, obs.StageRIB)
		fs.mon.ObserveUpdateStamp("ris:"+ev.Host, &ev.Update, &ev.Stamp)
		now := time.Now()
		if fs.obs.StageCount(obs.StageAlarm) != alarmsBefore && int(ev.Span) <= len(fc.lineEnd) {
			handed := src.handedAt(fc.lineEnd[ev.Span-1], &cursor)
			out.detect = append(out.detect, sinceEpoch(now)-handed)
		}
		out.events++
		if meter != nil {
			meter.add(now, 1)
		}
	}
	out.elapsed = time.Since(start)
	out.counts = stage.Counters()
	return out, <-errc
}

// feedMRTPhase replays the archive into a fresh sink repeatedly for
// dur (at least twice) and returns entries/s per iteration.
func feedMRTPhase(r *result, fc *feedCorpus, dur time.Duration, spans *spanLog) (rates []float64, last *feedSink, stats mrt.Stats, err error) {
	entries := fc.ribEntries + fc.updateEntries
	for start := time.Now(); len(rates) < 2 || time.Since(start) < dur; {
		fs := newFeedSink(fc.roas)
		t0 := time.Now()
		res, err := replayMRT(fs, bytes.NewReader(fc.archive), nil)
		el := time.Since(t0)
		if err != nil {
			return nil, nil, stats, err
		}
		if spans != nil {
			spans.add(0, uint64(len(rates)+1), "feed.mrt_replay", sinceEpoch(t0), sinceEpoch(t0.Add(el)), entries)
		}
		rates = append(rates, float64(entries)/el.Seconds())
		r.Attempted += int64(entries)
		got := fs.mon.Alarms()
		r.fail(fc.checkAlarms(got), "MRT replay alarms differ from the reference (%d raised, %d expected)", len(got), len(fc.alarms))
		r.fail(int64(res.Malformed), "malformed MRT records")
		if int(res.Stats.RIBEntries) != fc.ribEntries || int(res.Stats.Updates) != fc.updates {
			r.fail(1, "MRT reader saw %d RIB entries and %d updates, archive holds %d and %d",
				res.Stats.RIBEntries, res.Stats.Updates, fc.ribEntries, fc.updates)
		}
		if last != nil {
			last.col.Close()
		}
		last, stats = fs, res.Stats
	}
	return rates, last, stats, nil
}

// feedStreamPhase replays the NDJSON stream into a fresh sink
// repeatedly for dur (at least once).
func feedStreamPhase(r *result, fc *feedCorpus, dur time.Duration, bucket time.Duration, spans *spanLog) (rate float64, buckets int, detect []int64, counts rislive.Counters, err error) {
	start := time.Now()
	meter := newRateMeter(start, bucket)
	for it := 0; it < 1 || time.Since(start) < dur; it++ {
		fs := newFeedSink(fc.roas)
		t0 := time.Now()
		out, err := replayRISLive(fs, fc, meter)
		if err != nil {
			return 0, 0, nil, counts, err
		}
		if spans != nil {
			spans.add(0, uint64(it+1), "feed.rislive_replay", sinceEpoch(t0), sinceEpoch(t0.Add(out.elapsed)), fc.updates)
		}
		r.Attempted += int64(fc.updates)
		got := fs.mon.Alarms()
		r.fail(fc.checkAlarms(got), "RIS-Live replay alarms differ from the reference (%d raised, %d expected)", len(got), len(fc.alarms))
		c := out.counts
		r.fail(int64(c.Dropped), "events dropped under block policy")
		r.fail(int64(c.ParseErrors), "NDJSON lines that failed to parse")
		if c.Delivered != uint64(fc.updates) {
			r.fail(1, "stage delivered %d events, stream holds %d", c.Delivered, fc.updates)
		}
		detect = append(detect, out.detect...)
		counts = c
		fs.col.Close()
	}
	rate, buckets = meter.perSecond()
	return rate, buckets, detect, counts, nil
}

// runFeedReplay is the offline/stream sources, bypassing wire, session
// and speaker entirely.
func runFeedReplay(seed int64, seconds int, traced bool, sz sizes) (*result, error) {
	r := newResult("feed_replay", seed, traced)
	if traced {
		return r, tracedFeed(r, seed, seconds, sz)
	}
	var (
		setups []float64
		fc     *feedCorpus
		err    error
	)
	for k := 0; k < sz.feed.setups; k++ {
		t0 := time.Now()
		if fc, err = newFeedCorpus(seed, sz.feed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	half := time.Duration(seconds) * time.Second / 2
	corpusHeap := liveHeapMiB()
	cpu0 := cpuSeconds()
	rates, last, _, err := feedMRTPhase(r, fc, half, nil)
	if err != nil {
		return nil, err
	}
	cpuUS := (cpuSeconds() - cpu0) * 1e6 / float64(len(rates)*(fc.ribEntries+fc.updateEntries))
	// Two collections: one leaves the previous pass's sink alive when it
	// starts while a background cycle is still marking.
	runtime.GC()
	heap := liveHeapMiB() - corpusHeap
	last.col.Close()
	rate, buckets, detect, _, err := feedStreamPhase(r, fc, half, sz.feed.bucket, nil)
	if err != nil {
		return nil, err
	}
	p50, _ := nsQuantiles(detect)
	r.set("setup_s", median(setups))
	r.set("primary_per_s", fastest(rates))
	r.set("secondary_per_s", rate)
	r.set("cpu_us_per_op", cpuUS)
	r.set("heap_mib", heap)
	r.set("latency_p50_us", p50)
	r.notef("setup_s: median of %d archive generations (%d prefixes x %d peers, %d updates, MRT %.1f MiB, NDJSON %.1f MiB)",
		len(setups), sz.feed.prefixes, feedPeers, fc.updates, float64(len(fc.archive))/(1<<20), float64(len(fc.ndjson))/(1<<20))
	r.notef("heap_mib: monitor + collector after a full replay (%.1f MiB of corpus held by the benchmark not counted)", corpusHeap)
	r.notef("primary_per_s = mrt_entries_per_s: fastest of %d full replays of %d entries", len(rates), fc.ribEntries+fc.updateEntries)
	r.notef("secondary_per_s = rislive_events_per_s: median of %d %s buckets", buckets, sz.feed.bucket)
	r.notef("latency = stream detect (conflict line handed to the stage -> alarm raised): %d samples; reference alarms per replay: %d",
		len(detect), len(fc.alarms))
	return r, nil
}
