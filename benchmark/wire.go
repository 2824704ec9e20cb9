package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/speaker"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Receivers of the validator's exports: the two sources and the sink.
const (
	rcvA = iota
	rcvB
	rcvSink
	numReceivers
)

// latencyLimit is the service limit of the open-loop phases: a paced
// message whose result takes longer counts as failed. The issue asked
// for 100 ms; on a shared 2-vCPU VM the whole process is paused for that
// long often enough (one run in ten) that the limit would measure the
// host, so it is set where only a wedged validator trips it.
const latencyLimit = time.Second

// flightOp is one operation between its send and its completion.
type flightOp struct {
	prefix int32
	kind   opKind
	// pending counts export sightings still owed: each export message
	// the oracle expects must be seen by the sink and by both sources
	// (the sender's own copy is the echo).
	pending uint8
	alarm   bool  // an alarm is still owed
	units   uint8 // prefixes this op accounts for (2 for a flap)
	due     int64 // ns since the process epoch: when due (open loop) or sent (closed loop)
	span    *msgSpans
}

// source is one sending peer's in-flight window.
type source struct {
	sess *session.Session
	ring []flightOp
	// head and tail are op sequence numbers: [head, tail) is in flight.
	head, tail uint64
	// slot maps a prefix to ring position+1 of its in-flight op, 0 if
	// none. A stream never revisits a prefix within the ring's length.
	slot []int32
	// lastSignal is the sequence number of the newest op the validator
	// is known to have processed (an export or alarm was seen for it),
	// -1 if none. Sessions are FIFO, so every earlier op is processed
	// too — which is how ops that expect no export complete.
	lastSignal int64
	inflight   int // prefixes in flight
	// owing counts in-flight ops that still expect an export or alarm.
	owing int
	// Oracle totals of everything sent so far.
	sentAccepted, sentRejected, sentWithdrawn, sentAlarms, sentExports uint64
	completed                                                          uint64 // prefixes completed
	writeBlock                                                         time.Duration
}

// flights is the closed-loop bookkeeping shared by the two senders, the
// three receiving session goroutines and the validator's alarm hook.
type flights struct {
	mu   sync.Mutex
	cond *sync.Cond
	src  [2]source
	// stopWhy is set when a phase must end early: a benchmark session
	// went down or the phase deadline passed.
	stopWhy string
	// settle is set while draining: ops that expect no signal complete
	// once the validator's counters say everything sent is accounted.
	settle bool

	meter *rateMeter
	// meterSrc restricts the meter to one source's completions (-1: both).
	meterSrc  int
	propagate []int64 // legit due → seen at sink, ns
	detect    []int64 // forged due → OnAlarm, ns
	late      []int64 // open loop: how late the generator sent, ns
	lastSink  time.Time

	ownEcho, exportsSeen       uint64
	strayAlarms, strayExports  int64
	wrongVerdict, forgedAtSink int64
	overLimit                  int64
	spans                      *spanLog
}

// harness is one booted system under test plus the benchmark's three
// sessions to it.
type harness struct {
	c     *wireCorpus
	spk   *speaker.Speaker
	reg   *telemetry.Registry
	trace *trace.Recorder
	obs   *obs.Recorder
	ln    net.Listener
	sink  *session.Session
	fl    *flights
	// variant is the oracle's view of each prefix's current path
	// variant; sinkVariant/sinkOrigin what the sink last saw.
	variant     []uint16
	sinkOrigin  []astypes.ASN
	sinkVariant []astypes.ASN
	sinkPresent []bool

	teardowns atomic.Int64
	window    int

	cAccepted, cRejected, cWithdrawn, cAlarms, cUpdatesIn, cUpdatesOut, cMsgsIn *telemetry.Counter
}

// bootValidator wires a speaker exactly as daemon.Build does — drop
// validation, the MOASRR store as resolver, the ROA store, a 4096-event
// flight recorder, the stage observatory, one shared registry — with
// OnAlarm as the only addition, then peers the sink and both sources
// with it over loopback TCP.
func bootValidator(c *wireCorpus, window int) (*harness, error) {
	store, roas := c.stores()
	reg := telemetry.NewRegistry("moas")
	telemetry.RegisterBuildInfo(reg)
	h := &harness{
		c: c, reg: reg, window: window,
		trace:       trace.NewRecorder(4096),
		obs:         obs.NewRecorder(),
		variant:     make([]uint16, len(c.prefixes)),
		sinkOrigin:  make([]astypes.ASN, len(c.prefixes)),
		sinkVariant: make([]astypes.ASN, len(c.prefixes)),
		sinkPresent: make([]bool, len(c.prefixes)),
	}
	h.fl = &flights{meterSrc: -1}
	h.fl.cond = sync.NewCond(&h.fl.mu)
	// The ring must stay shorter than a stream's revisit distance.
	ring := 1 << 15
	for ring > len(c.byHome[0])/2 || ring > len(c.byHome[1])/2 {
		ring >>= 1
	}
	if ring < 2*window {
		return nil, fmt.Errorf("table of %d prefixes too small for a window of %d", len(c.prefixes), window)
	}
	for s := range h.fl.src {
		h.fl.src[s] = source{ring: make([]flightOp, ring), slot: make([]int32, len(c.prefixes)), lastSignal: -1}
	}
	spk, err := speaker.New(speaker.Config{
		AS:         validatorAS,
		RouterID:   uint32(validatorAS),
		Validation: speaker.ValidationDrop,
		Resolver:   store,
		Telemetry:  reg,
		Trace:      h.trace,
		RPKI:       roas,
		Obs:        h.obs,
		OnAlarm:    h.onAlarm,
	})
	if err != nil {
		return nil, err
	}
	h.spk = spk
	h.cAccepted = reg.Counter("speaker_routes_accepted_total", "")
	h.cRejected = reg.Counter("speaker_routes_rejected_total", "")
	h.cWithdrawn = reg.Counter("speaker_withdrawals_in_total", "")
	h.cAlarms = reg.Counter("speaker_moas_alarms_total", "")
	h.cUpdatesIn = reg.Counter("speaker_updates_in_total", "")
	h.cUpdatesOut = reg.Counter("speaker_updates_out_total", "")
	h.cMsgsIn = reg.CounterVec("session_msgs_in_total", "", "type").With("update")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		spk.Close()
		return nil, err
	}
	h.ln = ln
	spk.Listen(ln)
	dial := func(as astypes.ASN, hd session.Handler) (*session.Session, error) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		return session.Establish(conn, session.Config{
			LocalAS: as, LocalID: uint32(as), PeerAS: validatorAS, Handler: hd,
		})
	}
	if h.sink, err = dial(sinkAS, receiver{h: h, who: rcvSink}); err != nil {
		h.close()
		return nil, err
	}
	for s := range h.fl.src {
		if h.fl.src[s].sess, err = dial(peerAS[s], receiver{h: h, who: s}); err != nil {
			h.close()
			return nil, err
		}
	}
	// The client side of a handshake returns before the speaker has
	// registered the peer; exports only reach registered peers.
	for deadline := time.Now().Add(5 * time.Second); len(spk.Peers()) < numReceivers; {
		if time.Now().After(deadline) {
			h.close()
			return nil, errors.New("validator did not register all three peers")
		}
		time.Sleep(time.Millisecond)
	}
	return h, nil
}

func (h *harness) close() {
	// A teardown we asked for is not a failure.
	h.fl.mu.Lock()
	if h.fl.stopWhy == "" {
		h.fl.stopWhy = "closing"
	}
	h.fl.mu.Unlock()
	// The speaker goes first: closing a source while the speaker is up
	// makes it withdraw that peer's 50k routes from the other two, whose
	// send queues overflow, and the seed spawns one teardown goroutine
	// per overflowing update.
	h.spk.Close()
	for s := range h.fl.src {
		if sess := h.fl.src[s].sess; sess != nil {
			sess.Close()
		}
	}
	if h.sink != nil {
		h.sink.Close()
	}
}

func (h *harness) now() int64 { return sinceEpoch(time.Now()) }

// accounted is the validator's own count of prefixes it has dealt with.
func (h *harness) accounted() uint64 {
	return h.cAccepted.Value() + h.cRejected.Value() + h.cWithdrawn.Value()
}

// receiver is the session.Handler of a benchmark-owned session.
type receiver struct {
	h   *harness
	who int
}

func (r receiver) HandleUpdate(_ astypes.ASN, u *wire.Update) {
	h := r.h
	now := time.Now()
	nowNs := sinceEpoch(now)
	var origin, variant astypes.ASN
	if segs := u.Attrs.ASPath.Segments; len(u.NLRI) > 0 && len(segs) == 1 && len(segs[0].ASNs) >= 4 {
		// validator, peer, variant hop, …, origin
		variant = segs[0].ASNs[2]
		origin = segs[0].ASNs[len(segs[0].ASNs)-1]
	}
	fl := h.fl
	fl.mu.Lock()
	for _, p := range u.Withdrawn {
		i, ok := h.c.index[p]
		if !ok {
			fl.strayExports++
			continue
		}
		if r.who == rcvSink {
			h.sinkPresent[i] = false
		}
		fl.sighting(i, r.who, false, now, nowNs)
	}
	for _, p := range u.NLRI {
		i, ok := h.c.index[p]
		if !ok {
			fl.strayExports++
			continue
		}
		if r.who == rcvSink {
			h.sinkPresent[i], h.sinkOrigin[i], h.sinkVariant[i] = true, origin, variant
			if origin >= forgerBase {
				fl.forgedAtSink++
			}
		}
		fl.sighting(i, r.who, true, now, nowNs)
	}
	fl.mu.Unlock()
}

func (r receiver) HandleDown(_ astypes.ASN, err error) {
	fl := r.h.fl
	fl.mu.Lock()
	if fl.stopWhy == "" {
		r.h.teardowns.Add(1)
		fl.stopWhy = fmt.Sprintf("session %d torn down: %v", r.who, err)
	}
	fl.cond.Broadcast()
	fl.mu.Unlock()
}

// sighting books one export of prefix i seen by receiver who. Called
// with fl.mu held.
func (fl *flights) sighting(i int32, who int, announce bool, now time.Time, nowNs int64) {
	fl.exportsSeen++
	booked := false
	for s := range fl.src {
		src := &fl.src[s]
		pos := src.slot[i]
		if pos == 0 {
			continue
		}
		op := &src.ring[pos-1]
		if op.pending == 0 {
			continue
		}
		booked = true
		op.pending--
		if op.pending == 0 && !op.alarm {
			src.owing--
		}
		if who == s {
			fl.ownEcho++
		}
		seq := src.seqOf(pos - 1)
		if int64(seq) > src.lastSignal {
			src.lastSignal = int64(seq)
		}
		if op.span != nil {
			op.span.sighted(who, nowNs)
		}
		if who == rcvSink {
			fl.lastSink = now
			if announce {
				lat := nowNs - op.due
				fl.propagate = append(fl.propagate, lat)
				if lat > int64(latencyLimit) {
					fl.overLimit++
				}
			}
		}
		fl.advance(src, now)
		break
	}
	if !booked {
		fl.strayExports++
	}
}

// seqOf recovers the sequence number of the in-flight op at ring
// position pos.
func (src *source) seqOf(pos int32) uint64 {
	mask := uint64(len(src.ring) - 1)
	return src.head + ((uint64(pos) - src.head) & mask)
}

// advance retires completed ops from the head of src's window. Called
// with fl.mu held.
func (fl *flights) advance(src *source, now time.Time) {
	mask := uint64(len(src.ring) - 1)
	var units uint64
	for src.head < src.tail {
		op := &src.ring[src.head&mask]
		if op.pending != 0 || op.alarm {
			break
		}
		if op.kind == opDup && !fl.settle && src.lastSignal <= int64(src.head) {
			break
		}
		if op.span != nil {
			op.span.finish(sinceEpoch(now))
			op.span = nil
		}
		src.slot[op.prefix] = 0
		src.inflight -= int(op.units)
		units += uint64(op.units)
		src.head++
	}
	if units > 0 {
		src.completed += units
		if fl.meter != nil && (fl.meterSrc < 0 || src == &fl.src[fl.meterSrc]) {
			fl.meter.add(now, units)
		}
		fl.cond.Broadcast()
	}
}

// onAlarm is the validator's OnAlarm hook; it runs under the speaker's
// lock, so it only books the alarm.
func (h *harness) onAlarm(c core.Conflict) {
	now := time.Now()
	nowNs := sinceEpoch(now)
	fl := h.fl
	fl.mu.Lock()
	defer fl.mu.Unlock()
	i, ok := h.c.index[c.Prefix]
	s := -1
	switch c.FromPeer {
	case peerAAS:
		s = 0
	case peerBAS:
		s = 1
	}
	if !ok || s < 0 {
		fl.strayAlarms++
		return
	}
	src := &fl.src[s]
	pos := src.slot[i]
	if pos == 0 || !src.ring[pos-1].alarm {
		fl.strayAlarms++
		return
	}
	op := &src.ring[pos-1]
	op.alarm = false
	if op.pending == 0 {
		src.owing--
	}
	if c.Verdict != core.VerdictConflict || c.Origin < forgerBase {
		fl.wrongVerdict++
	}
	lat := nowNs - op.due
	fl.detect = append(fl.detect, lat)
	if op.span != nil {
		op.span.alarmed(nowNs)
	}
	if seq := src.seqOf(pos - 1); int64(seq) > src.lastSignal {
		src.lastSignal = int64(seq)
	}
	fl.advance(src, now)
}

// sender drives one source: it turns stream ops into UPDATEs, registers
// them in the window and writes them. One goroutine per source.
type sender struct {
	h       *harness
	s       int
	scratch [64]updateScratch
	batch   []*wire.Update
	// window is the closed-loop limit: prefixes in flight.
	window int
}

func newSender(h *harness, s int) *sender {
	return &sender{h: h, s: s, batch: make([]*wire.Update, 0, 64), window: h.window}
}

// book puts one op into the window. Called with fl.mu held; false if
// the ring is exhausted or the prefix is already in flight (the system
// has fallen hopelessly behind an open-loop schedule).
func (sd *sender) book(f flightOp) bool {
	fl := sd.h.fl
	src := &fl.src[sd.s]
	if src.tail-src.head >= uint64(len(src.ring)) || src.slot[f.prefix] != 0 {
		return false
	}
	if fl.spans != nil && src.tail%spanSampleEvery == 0 {
		f.span = fl.spans.begin(uint64(sd.s+1)<<56|src.tail, f.due)
	}
	pos := int32(src.tail & uint64(len(src.ring)-1))
	src.ring[pos] = f
	src.slot[f.prefix] = pos + 1
	src.tail++
	src.inflight += int(f.units)
	if f.pending != 0 || f.alarm {
		src.owing++
	}
	return true
}

func (sd *sender) nextScratch() *updateScratch { return &sd.scratch[len(sd.batch)] }

// register books one stream op as in flight, stamped with due (ns since
// the process epoch), advances the oracle, and builds its UPDATEs into
// the batch. Called with fl.mu held.
func (sd *sender) register(op wireOp, due int64) bool {
	h := sd.h
	src := &h.fl.src[sd.s]
	g := h.c.group(op.prefix)
	p := h.c.prefixes[op.prefix]
	f := flightOp{prefix: op.prefix, kind: op.kind, units: 1, due: due}
	switch op.kind {
	case opChange:
		f.pending = numReceivers
	case opFlap:
		f.pending, f.units = 2*numReceivers, 2
	case opForged:
		f.alarm = true
	}
	if !sd.book(f) {
		return false
	}
	switch op.kind {
	case opChange:
		h.variant[op.prefix]++
		sd.batch = append(sd.batch, h.c.announce(sd.nextScratch(), g, h.variant[op.prefix], p))
		src.sentAccepted++
		src.sentExports++
	case opFlap:
		h.variant[op.prefix]++
		sd.batch = append(sd.batch, h.c.withdraw(sd.nextScratch(), p))
		sd.batch = append(sd.batch, h.c.announce(sd.nextScratch(), g, h.variant[op.prefix], p))
		src.sentWithdrawn++
		src.sentAccepted++
		src.sentExports += 2
	case opDup:
		sd.batch = append(sd.batch, h.c.announce(sd.nextScratch(), g, h.variant[op.prefix], p))
		src.sentAccepted++
	case opForged:
		sd.batch = append(sd.batch, h.c.forged(sd.nextScratch(), uint8(sd.s), op.forger, p))
		src.sentRejected++
		src.sentAlarms++
	}
	return true
}

// registerGroup books the cold announcement of one whole group as
// groupSize ops carried by a single UPDATE. The primary announcement
// installs each prefix and is exported; the secondary one (the other
// peer of a dual group) loses the decision process and is not.
func (sd *sender) registerGroup(gi int, secondary bool, due int64) bool {
	h := sd.h
	src := &h.fl.src[sd.s]
	g := &h.c.groups[gi]
	prefixes := h.c.prefixes[gi*groupSize : (gi+1)*groupSize]
	for k := range prefixes {
		f := flightOp{prefix: int32(gi*groupSize + k), kind: opChange, pending: numReceivers, units: 1, due: due}
		if secondary {
			f.kind, f.pending = opDup, 0
		}
		if !sd.book(f) {
			return false
		}
	}
	if secondary {
		sd.batch = append(sd.batch, h.c.announceSecondary(sd.nextScratch(), g, prefixes...))
	} else {
		sd.batch = append(sd.batch, h.c.announce(sd.nextScratch(), g, 0, prefixes...))
		src.sentExports += groupSize
	}
	src.sentAccepted += groupSize
	return true
}

// waitRoom blocks until need more prefixes fit in the window or the
// phase is stopped. Called with fl.mu held. A window holding only ops
// that expect no export or alarm will never be signalled, so it is
// settled against the validator's counters instead.
func (sd *sender) waitRoom(need int) {
	h, fl := sd.h, sd.h.fl
	src := &fl.src[sd.s]
	for src.inflight+need > sd.window && fl.stopWhy == "" {
		if src.owing > 0 {
			fl.cond.Wait()
			continue
		}
		fl.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		fl.mu.Lock()
		if src.owing == 0 && h.accounted() >= fl.sentTotal() {
			fl.settle = true
			fl.advance(src, time.Now())
			fl.settle = false
		}
	}
}

// sentTotal is the oracle's count of prefixes sent so far that the
// validator must account for. Called with fl.mu held.
func (fl *flights) sentTotal() uint64 {
	var n uint64
	for s := range fl.src {
		n += fl.src[s].sentAccepted + fl.src[s].sentRejected + fl.src[s].sentWithdrawn
	}
	return n
}

// runLoad announces, under the window, every group this source is the
// primary of (or, with secondary set, every dual group it is the other
// peer of), groupSize NLRI per UPDATE.
func (sd *sender) runLoad(secondary bool) {
	h, fl := sd.h, sd.h.fl
	src := &fl.src[sd.s]
	gi := 0
	for {
		fl.mu.Lock()
		sd.waitRoom(groupSize)
		if fl.stopWhy != "" {
			fl.mu.Unlock()
			return
		}
		from := src.tail
		now := h.now()
		for ; gi < len(h.c.groups) && src.inflight+groupSize <= sd.window && len(sd.batch) < 16; gi++ {
			g := &h.c.groups[gi]
			mine := !secondary && int(g.home) == sd.s || secondary && g.dual && int(g.home) != sd.s
			if !mine {
				continue
			}
			if !sd.registerGroup(gi, secondary, now) {
				fl.stopWhy = fmt.Sprintf("source %d: in-flight ring exhausted during load", sd.s)
				break
			}
		}
		spans := sd.sampledSpans(from)
		fl.mu.Unlock()
		if sd.flush(spans) != nil || gi >= len(h.c.groups) {
			return
		}
	}
}

// loadTable transfers the whole table cold and returns the time from
// the first byte sent to the last prefix seen at the sink. The dual
// groups' secondary announcements follow, untimed: sent first they
// would be exported and then replaced, and the oracle would have to
// guess the order.
func (h *harness) loadTable() (time.Duration, string) {
	start := time.Now()
	why := h.phase("load", 10*time.Second, nil, func() {
		h.both(func(sd *sender) { sd.runLoad(false) })
	})
	h.fl.mu.Lock()
	dur := h.fl.lastSink.Sub(start)
	h.fl.mu.Unlock()
	if why == "" {
		why = h.phase("load-secondary", 5*time.Second, nil, func() {
			h.both(func(sd *sender) { sd.runLoad(true) })
		})
	}
	return dur, why
}

// flush writes the batch built by register. Called without fl.mu.
func (sd *sender) flush(spans []*msgSpans) error {
	if len(sd.batch) == 0 {
		return nil
	}
	t0 := time.Now()
	_, err := sd.h.fl.src[sd.s].sess.SendUpdates(sd.batch)
	d := time.Since(t0)
	sd.batch = sd.batch[:0]
	fl := sd.h.fl
	fl.mu.Lock()
	for _, sp := range spans {
		sp.wrote(sinceEpoch(t0), sinceEpoch(t0)+int64(d))
	}
	fl.src[sd.s].writeBlock += d
	if err != nil && fl.stopWhy == "" {
		fl.stopWhy = fmt.Sprintf("source %d write: %v", sd.s, err)
		fl.cond.Broadcast()
	}
	fl.mu.Unlock()
	return err
}

// sampledSpans collects the span records of the ops registered since
// the last flush, for stamping their write time.
func (sd *sender) sampledSpans(from uint64) []*msgSpans {
	fl := sd.h.fl
	if fl.spans == nil {
		return nil
	}
	src := &fl.src[sd.s]
	var out []*msgSpans
	mask := uint64(len(src.ring) - 1)
	for q := from; q < src.tail; q++ {
		if sp := src.ring[q&mask].span; sp != nil {
			out = append(out, sp)
		}
	}
	return out
}

// runClosed sends ops from next as fast as the window allows until the
// deadline or until next reports no more ops. Closed loop: at most
// h.window prefixes are in flight, and the sender blocks on the
// condition while the window is full.
func (sd *sender) runClosed(next func() (wireOp, bool), until time.Time) {
	fl := sd.h.fl
	src := &fl.src[sd.s]
	for {
		fl.mu.Lock()
		sd.waitRoom(1)
		if fl.stopWhy != "" || !time.Now().Before(until) {
			fl.mu.Unlock()
			return
		}
		from := src.tail
		more := true
		now := sd.h.now()
		for src.inflight < sd.window && len(sd.batch) < cap(sd.batch)-1 {
			op, ok := next()
			if !ok {
				more = false
				break
			}
			if !sd.register(op, now) {
				fl.stopWhy = fmt.Sprintf("source %d: in-flight ring exhausted", sd.s)
				break
			}
		}
		spans := sd.sampledSpans(from)
		fl.mu.Unlock()
		if sd.flush(spans) != nil || !more {
			return
		}
	}
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep
// wakes through the netpoller, whose timeout has millisecond
// granularity when every P is idle: at one message per 100 µs the
// generator would run up to a millisecond late and every latency,
// counted from when the message was due, would carry that.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early EINTR only makes the loop come round sooner
}

// pacedTick is the open-loop schedule's period: every tick each source
// sends, as one burst due at that instant, the messages its rate calls
// for. BGP updates arrive in bursts, and a burst per tick keeps the
// generator's own cost (one write, one wake-up) out of the per-message
// price the way one message per 100 µs would not.
const pacedTick = 2 * time.Millisecond

// runPaced sends ops from next on a fixed schedule of rate ops per
// second for dur, whether or not earlier ones have completed. Open
// loop: each op is stamped with the instant it was due, not the instant
// it was written, so a stall is charged to every op it delays.
func (sd *sender) runPaced(next func() wireOp, start time.Time, rate float64, dur time.Duration) (scheduled uint64) {
	fl := sd.h.fl
	src := &fl.src[sd.s]
	// The two sources tick half a period apart. Left to start whenever
	// their goroutines happen to, their bursts would coincide in some
	// runs and interleave in others, and the median latency would read
	// one burst's processing time or two.
	start = start.Add(time.Duration(sd.s) * pacedTick / 2)
	perTick := rate * pacedTick.Seconds()
	ticks := int(dur / pacedTick)
	for k := 0; k < ticks; k++ {
		due := start.Add(time.Duration(k) * pacedTick)
		if d := time.Until(due); d > 0 {
			preciseSleep(d)
		}
		// Fractional rates carry over: tick k sends what brings the total
		// to (k+1)·perTick.
		want := uint64(float64(k+1) * perTick)
		dueNs := sinceEpoch(due)
		for scheduled < want {
			fl.mu.Lock()
			if fl.stopWhy != "" {
				fl.mu.Unlock()
				return scheduled
			}
			from := src.tail
			lateNs := sinceEpoch(time.Now()) - dueNs
			for scheduled < want && len(sd.batch) < cap(sd.batch)-1 {
				if !sd.register(next(), dueNs) {
					fl.stopWhy = fmt.Sprintf("source %d: backlog exceeds the in-flight ring", sd.s)
					break
				}
				fl.late = append(fl.late, lateNs)
				scheduled++
			}
			spans := sd.sampledSpans(from)
			fl.mu.Unlock()
			if sd.flush(spans) != nil {
				return scheduled
			}
		}
	}
	return scheduled
}

// phase runs body with a deadline: when it passes, every blocked sender
// is released and the phase ends with whatever is still in flight
// counted as failed. It returns after body and the final drain.
func (h *harness) phase(name string, planned time.Duration, meter *rateMeter, body func()) (why string) {
	fl := h.fl
	fl.mu.Lock()
	fl.meter = meter
	fl.propagate, fl.detect, fl.late = fl.propagate[:0], fl.detect[:0], fl.late[:0]
	fl.overLimit = 0
	fl.mu.Unlock()
	grace := planned/2 + 5*time.Second
	watchdog := time.AfterFunc(planned+grace, func() {
		fl.mu.Lock()
		if fl.stopWhy == "" {
			fl.stopWhy = name + ": deadline passed"
		}
		fl.cond.Broadcast()
		fl.mu.Unlock()
	})
	defer watchdog.Stop()
	body()
	h.drain()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.meter = nil
	return fl.stopWhy
}

// both runs f for each source on its own goroutine and waits.
func (h *harness) both(f func(sd *sender)) {
	var wg sync.WaitGroup
	for s := range h.fl.src {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(newSender(h, s))
		}()
	}
	wg.Wait()
}

// drain waits until the validator's counters account for everything
// sent and every owed export and alarm has arrived, or the phase is
// stopped. Ops that expect no signal complete on the counters.
func (h *harness) drain() {
	fl := h.fl
	for {
		fl.mu.Lock()
		want := fl.sentTotal()
		owed := fl.src[0].owing+fl.src[1].owing > 0
		stopped := fl.stopWhy != ""
		if !owed && h.accounted() >= want {
			fl.settle = true
			now := time.Now()
			for s := range fl.src {
				fl.advance(&fl.src[s], now)
			}
			fl.settle = false
			fl.mu.Unlock()
			return
		}
		fl.mu.Unlock()
		if stopped {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// inflightUnits is the number of prefixes sent but not completed.
func (h *harness) inflightUnits() int64 {
	fl := h.fl
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return int64(fl.src[0].inflight + fl.src[1].inflight)
}

// completedUnits is the number of prefixes completed since boot.
func (h *harness) completedUnits() uint64 {
	fl := h.fl
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.src[0].completed + fl.src[1].completed
}

// verifyCounters checks the validator's own counters against the
// oracle's totals of everything sent since boot.
func (h *harness) verifyCounters(r *result) {
	fl := h.fl
	fl.mu.Lock()
	var acc, rej, wd, al uint64
	for s := range fl.src {
		src := &fl.src[s]
		acc += src.sentAccepted
		rej += src.sentRejected
		wd += src.sentWithdrawn
		al += src.sentAlarms
	}
	stray, strayExp, wrong, forged := fl.strayAlarms, fl.strayExports, fl.wrongVerdict, fl.forgedAtSink
	fl.mu.Unlock()
	diff := func(name string, got, want uint64) {
		if got != want {
			d := int64(got) - int64(want)
			if d < 0 {
				d = -d
			}
			r.fail(d, "validator %s = %d, reference %d", name, got, want)
		}
	}
	diff("routes accepted", h.cAccepted.Value(), acc)
	diff("routes rejected", h.cRejected.Value(), rej)
	diff("withdrawals", h.cWithdrawn.Value(), wd)
	diff("alarms", h.cAlarms.Value(), al)
	r.fail(stray, "alarms the reference did not expect")
	r.fail(strayExp, "exports the reference did not expect")
	r.fail(wrong, "alarms with the wrong verdict or origin")
	r.fail(forged, "forged origins that reached the sink")
}

// verifySink checks the sink's final view against the oracle: every
// table prefix present, with its legitimate origin and current path
// variant.
func (h *harness) verifySink(r *result) {
	fl := h.fl
	fl.mu.Lock()
	defer fl.mu.Unlock()
	var missing, wrongOrigin, stale int64
	for i := range h.c.prefixes {
		g := h.c.group(int32(i))
		switch {
		case !h.sinkPresent[i]:
			missing++
		case h.sinkOrigin[i] != g.origin:
			wrongOrigin++
		case h.sinkVariant[i] != variantHop(h.variant[i]):
			stale++
		}
	}
	r.fail(missing, "table prefixes absent from the sink")
	r.fail(wrongOrigin, "prefixes at the sink with the wrong origin")
	r.fail(stale, "prefixes at the sink with a stale path")
}
