package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/astypes"
)

// wireSizes are the knobs that differ between the full benchmark and
// the toy run the test uses; nothing else about the workloads changes.
type wireSizes struct {
	prefixes int
	window   int // prefixes in flight per source, closed loop
	// setups and stormSetups are how many times an untraced run sets up
	// (corpus, boot, sessions, table transfer) for wire_churn, whose cold
	// loads are also a metric, and for wire_storm.
	setups, stormSetups int
	paced               float64 // wire_churn open-loop rate, prefixes/s over both sources
	// stormLegit is peer A's open-loop rate during wire_storm. It is set
	// well under what the seed sustains while the storm holds the
	// speaker's lock, so the latency it reports is the wait for that
	// lock and not an ever-growing backlog.
	stormLegit float64
	// stormWindow is peer B's window during the mixed storm: small enough
	// that what is in flight when the phase ends drains within its
	// grace at the seed's ~65 alarms/s, large enough that the validator
	// always has the next forged UPDATE waiting in its socket buffer.
	stormWindow int
	bucket      time.Duration // rate-meter bucket
}

var fullWire = wireSizes{prefixes: 100_000, window: 1024, setups: 5, stormSetups: 3, paced: 20_000, stormLegit: 20, stormWindow: 32, bucket: 500 * time.Millisecond}
var toyWire = wireSizes{prefixes: 1_000, window: 64, setups: 1, stormSetups: 1, paced: 2_000, stormLegit: 20, stormWindow: 32, bucket: 100 * time.Millisecond}

// Parts per thousand of each op kind. Forged origins only land on
// prefixes without a MOASRR record (71% of the table), so the drawn
// share is set to leave 0.5% and 1% of all ops forged.
var (
	saturateMix = opMix{flap: 100, dup: 45, forged: 7}
	pacedMix    = opMix{flap: 100, dup: 45, forged: 14}
	legitMix    = opMix{}
)

// wireSetup sets up setups times from the seed's corpus, keeping the
// last validator for the timed phases. One set-up is everything a churn
// or storm phase needs in place: corpus generation, validator boot,
// three sessions established and the whole table transferred cold.
// setup_s is the median set-up; the transfers alone, first byte sent to
// last prefix at the sink, give the load rate.
func wireSetup(r *result, seed int64, sz wireSizes, setups int) (h *harness, setupS, loadRate float64, err error) {
	var setupTimes, loadRates []float64
	for k := 0; k < setups; k++ {
		if h != nil {
			h.close()
		}
		t0 := time.Now()
		c := newWireCorpus(seed, sz.prefixes)
		h, err = bootValidator(c, sz.window)
		if err != nil {
			return nil, 0, 0, err
		}
		dur, why := h.loadTable()
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		r.Attempted += int64(len(c.prefixes))
		if why != "" {
			r.fail(h.inflightUnits()+1, "load: %s", why)
			return h, 0, 0, nil
		}
		loadRates = append(loadRates, float64(len(c.prefixes))/dur.Seconds())
	}
	r.notef("setup_s: median of %d set-ups (corpus, boot, 3 sessions, cold transfer of %d prefixes); table load: fastest of the %d transfers",
		len(setupTimes), sz.prefixes, len(loadRates))
	return h, median(setupTimes), fastest(loadRates), nil
}

// scraper is the operator's Prometheus: one Registry.Gather a second
// for as long as a phase runs, each one timed.
type scraper struct {
	stop chan struct{}
	done sync.WaitGroup
	ms   []float64
}

func startScraper(h *harness) *scraper {
	s := &scraper{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				t0 := time.Now()
				fams := h.reg.Gather()
				s.ms = append(s.ms, float64(time.Since(t0))/1e6)
				runtime.KeepAlive(fams)
			}
		}
	}()
	return s
}

func (s *scraper) finish() []float64 {
	close(s.stop)
	s.done.Wait()
	return s.ms
}

// saturateOut is what one closed-loop churn phase measured.
type saturateOut struct {
	rate     float64 // prefixes/s, median bucket
	buckets  int
	cpuUS    float64 // process CPU µs per prefix completed
	units    uint64
	scrapeMS []float64
	before   procSample
	after    procSample
}

// saturate runs the closed-loop churn mix on both sources for dur.
func (h *harness) saturate(r *result, sz wireSizes, dur time.Duration, streams *[2]*churnStream) saturateOut {
	var out saturateOut
	for s := range streams {
		streams[s].mix = saturateMix
	}
	done0 := h.completedUnits()
	scr := startScraper(h)
	out.before = takeProcSample()
	start := time.Now()
	meter := newRateMeter(start, sz.bucket)
	why := h.phase("saturate", dur, meter, func() {
		until := start.Add(dur)
		h.both(func(sd *sender) {
			st := streams[sd.s]
			sd.runClosed(func() (wireOp, bool) { return st.next(), true }, until)
		})
	})
	out.after = takeProcSample()
	out.scrapeMS = scr.finish()
	out.units = h.completedUnits() - done0
	r.Attempted += int64(out.units) + h.inflightUnits()
	if why != "" {
		r.fail(h.inflightUnits()+1, "saturate: %s", why)
	}
	out.rate, out.buckets = meter.perSecond()
	if out.units > 0 {
		out.cpuUS = (out.after.cpu - out.before.cpu) * 1e6 / float64(out.units)
	}
	return out
}

// pacedOut is what one open-loop phase measured.
type pacedOut struct {
	detect, propagate, late []int64
	scheduled, completed    uint64
}

// paced runs the open-loop churn mix at sz.paced prefixes/s for dur.
func (h *harness) paced(r *result, sz wireSizes, dur time.Duration, streams *[2]*churnStream) pacedOut {
	var out pacedOut
	for s := range streams {
		streams[s].mix = pacedMix
	}
	done0 := h.completedUnits()
	var sched [2]uint64
	why := h.phase("paced", dur, nil, func() {
		start := time.Now()
		h.both(func(sd *sender) {
			sched[sd.s] = sd.runPaced(streams[sd.s].next, start, sz.paced/2, dur)
		})
	})
	out.scheduled = sched[0] + sched[1]
	out.completed = h.completedUnits() - done0
	r.Attempted += int64(out.completed) + h.inflightUnits()
	if why != "" {
		r.fail(h.inflightUnits()+1, "paced: %s", why)
	}
	fl := h.fl
	fl.mu.Lock()
	out.detect = append(out.detect, fl.detect...)
	out.propagate = append(out.propagate, fl.propagate...)
	out.late = append(out.late, fl.late...)
	over := fl.overLimit
	for _, d := range fl.detect {
		if d > int64(latencyLimit) {
			over++
		}
	}
	fl.mu.Unlock()
	r.fail(over, "paced messages over the %s latency limit", latencyLimit)
	return out
}

func churnStreams(h *harness, seed int64) *[2]*churnStream {
	return &[2]*churnStream{h.c.churnStream(seed, 0, saturateMix), h.c.churnStream(seed, 1, saturateMix)}
}

// runWireChurn is the headline live path: cold load, closed-loop
// saturation, then open-loop pacing with rare forged origins.
func runWireChurn(seed int64, seconds int, traced bool, all sizes) (*result, error) {
	r := newResult("wire_churn", seed, traced)
	if traced {
		return r, tracedWire(r, seed, seconds, all, false)
	}
	sz := all.wire
	h, setupS, loadRate, err := wireSetup(r, seed, sz, sz.setups)
	if err != nil {
		return nil, err
	}
	defer h.close()
	if !r.Correct {
		return r, nil
	}
	heap := liveHeapMiB()
	streams := churnStreams(h, seed)
	half := time.Duration(seconds) * time.Second / 2
	sat := h.saturate(r, sz, half, streams)
	pc := h.paced(r, sz, half, streams)
	h.verifyCounters(r)
	h.verifySink(r)

	p50, _ := nsQuantiles(pc.detect)
	r.set("setup_s", setupS)
	r.set("primary_per_s", sat.rate)
	r.set("secondary_per_s", loadRate)
	r.set("cpu_us_per_op", sat.cpuUS)
	r.set("heap_mib", heap)
	r.set("latency_p50_us", p50)
	r.notef("primary_per_s = updates_per_s: median of %d %s buckets, %d prefixes completed, closed loop, window %d per source",
		sat.buckets, sz.bucket, sat.units, sz.window)
	r.notef("latency = detect (forged UPDATE due -> OnAlarm): %d samples, open loop at %.0f prefixes/s", len(pc.detect), sz.paced)
	g := h.generatorView(pc.propagate, pc.late)
	r.notef("propagate (legit UPDATE due -> seen at sink): p50 %.0f us, p99 %.0f us, %d samples; generator ran late by p99 %.0f us and sat %.0f ms in write",
		g.propagateP50, g.propagateP99, len(pc.propagate), g.lateP99, g.writeBlockMS)
	return r, nil
}

// generatorView is the open-loop generator's side of a phase: how long
// legitimate updates took to reach the sink, how late the generator
// itself ran, and how long it sat in write.
type generatorView struct {
	propagateP50, propagateP99, lateP99, writeBlockMS float64
}

func (h *harness) generatorView(propagate, late []int64) generatorView {
	var g generatorView
	g.propagateP50, g.propagateP99 = nsQuantiles(propagate)
	_, g.lateP99 = nsQuantiles(late)
	fl := h.fl
	fl.mu.Lock()
	g.writeBlockMS = float64(fl.src[0].writeBlock+fl.src[1].writeBlock) / 1e6
	fl.mu.Unlock()
	return g
}

// set reports the view as the traced run's gen.* metrics.
func (g generatorView) set(r *result) {
	r.set("gen.propagate_p50_us", g.propagateP50)
	r.set("gen.propagate_p99_us", g.propagateP99)
	r.set("gen.late_p99_us", g.lateP99)
	r.set("gen.write_block_ms", g.writeBlockMS)
}

// stormStream is peer B's false-origination sequence over distinct table
// prefixes. Mixed, it alternates one with a MOASRR record (alarm,
// resolve, purge) and one without (alarm, conservative drop) and ends
// when the records run out; with dropOnly set it walks the prefixes
// without a record alone, round and round (a dropped forgery changes
// nothing, so the same prefix alarms again a lap later).
type stormStream struct {
	c                  *wireCorpus
	sent               int
	nextRec, nextPlain int
	dropOnly           bool
}

func (s *stormStream) next() (wireOp, bool) {
	var i int32
	if !s.dropOnly && s.sent%2 == 0 {
		if s.nextRec >= len(s.c.withRecord) {
			return wireOp{}, false
		}
		i = s.c.withRecord[s.nextRec]
		s.nextRec++
	} else {
		i = s.c.plain[s.nextPlain%len(s.c.plain)]
		s.nextPlain++
	}
	s.sent++
	return wireOp{prefix: i, kind: opForged, forger: astypes.ASN(forgerBase + s.sent%forgerSpan)}, true
}

// stormOut is what one storm phase measured.
type stormOut struct {
	rate      float64
	buckets   int
	alarms    uint64
	cpuUS     float64
	propagate []int64
	late      []int64
	before    procSample
	after     procSample
}

// storm runs peer B's closed-loop false originations for dur, window
// prefixes in flight, while peer A (if legit is not nil) sends
// legitimate path changes on an open-loop schedule.
func (h *harness) storm(r *result, sz wireSizes, dur time.Duration, forged *stormStream, window int, legit *churnStream) stormOut {
	var out stormOut
	fl := h.fl
	fl.mu.Lock()
	alarms0, done0 := fl.src[1].completed, fl.src[0].completed
	fl.mu.Unlock()
	out.before = takeProcSample()
	start := time.Now()
	meter := newRateMeter(start, sz.bucket)
	// Only B's completions (alarms) feed the meter: A's sender books
	// into the same flights, so the meter is attached to B alone below.
	why := h.phase("storm", dur, nil, func() {
		fl.mu.Lock()
		fl.meterSrc, fl.meter = 1, meter
		fl.mu.Unlock()
		var wg sync.WaitGroup
		if legit != nil {
			legit.mix = legitMix
			wg.Add(1)
			go func() {
				defer wg.Done()
				newSender(h, 0).runPaced(legit.next, start, sz.stormLegit, dur)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sd := newSender(h, 1)
			sd.window = window
			sd.runClosed(forged.next, start.Add(dur))
		}()
		wg.Wait()
	})
	out.after = takeProcSample()
	fl.mu.Lock()
	fl.meterSrc = -1
	out.alarms = fl.src[1].completed - alarms0
	legitDone := fl.src[0].completed - done0
	out.propagate = append(out.propagate, fl.propagate...)
	out.late = append(out.late, fl.late...)
	fl.mu.Unlock()
	r.Attempted += int64(out.alarms+legitDone) + h.inflightUnits()
	if why != "" {
		r.fail(h.inflightUnits()+1, "storm: %s", why)
	}
	out.rate, out.buckets = meter.perSecond()
	if out.alarms > 0 {
		out.cpuUS = (out.after.cpu - out.before.cpu) * 1e6 / float64(out.alarms)
	}
	return out
}

// runWireStorm is the mass false origination: the same layers as
// wire_churn used the other way round. Two thirds of the run is the
// mixed storm the workload is named for; the last third storms
// prefixes without a MOASRR record only, which prices the alarm path
// without the purge.
func runWireStorm(seed int64, seconds int, traced bool, all sizes) (*result, error) {
	r := newResult("wire_storm", seed, traced)
	if traced {
		return r, tracedWire(r, seed, seconds, all, true)
	}
	sz := all.wire
	h, setupS, _, err := wireSetup(r, seed, sz, sz.stormSetups)
	if err != nil {
		return nil, err
	}
	defer h.close()
	if !r.Correct {
		return r, nil
	}
	heap := liveHeapMiB()
	third := time.Duration(seconds) * time.Second / 3
	forged := &stormStream{c: h.c}
	st := h.storm(r, sz, 2*third, forged, sz.stormWindow, h.c.churnStream(seed, 0, legitMix))
	forged.dropOnly = true
	drop := h.storm(r, sz, third, forged, sz.window, nil)
	h.verifyCounters(r)
	h.verifySink(r)

	p50, _ := nsQuantiles(st.propagate)
	r.set("setup_s", setupS)
	r.set("primary_per_s", st.rate)
	r.set("secondary_per_s", drop.rate)
	r.set("cpu_us_per_op", st.cpuUS)
	r.set("heap_mib", heap)
	r.set("latency_p50_us", p50)
	r.notef("primary_per_s = alarms_per_s of the mixed storm: %d %s buckets, %d alarms, closed loop, window %d",
		st.buckets, sz.bucket, st.alarms, sz.stormWindow)
	r.notef("secondary_per_s = alarms_per_s with no MOASRR record (alarm, conservative drop, no purge): %d %s buckets, %d alarms, closed loop, window %d",
		drop.buckets, sz.bucket, drop.alarms, sz.window)
	g := h.generatorView(st.propagate, st.late)
	r.notef("latency = propagate of peer A during the mixed storm (legit UPDATE due -> seen at sink): %d samples, open loop at %.0f prefixes/s; generator ran late by p99 %.0f us",
		len(st.propagate), sz.stormLegit, g.lateP99)
	return r, nil
}
