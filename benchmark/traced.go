package main

import (
	"runtime"
	"time"
)

// The traced run of a workload: one set-up, a short untraced reference
// phase, then the same phase again with the benchmark's span recording
// and a CPU profile on. The difference between the two rates is the
// tracing overhead; the profile, the process counters and the shadow
// pipeline give the per-layer metrics.

// tracedTail fills in what every traced run reports the same way: the
// process counters over the traced phase, the CPU shares, the tracing
// overhead, and the trace file.
func tracedTail(r *result, spans *spanLog, shares map[string]float64, before, after procSample, ops uint64, refRate, tracedRate float64) error {
	if ops == 0 {
		ops = 1
	}
	r.set("proc.allocs_per_op", float64(after.mallocs-before.mallocs)/float64(ops))
	r.set("proc.bytes_per_op", float64(after.bytes-before.bytes)/float64(ops))
	cpu := after.cpu - before.cpu
	gcPct := 0.0
	if cpu > 0 {
		gcPct = 100 * (after.gcCPU - before.gcCPU) / cpu
	}
	r.set("proc.gc_cpu_pct", gcPct)
	r.set("proc.gc_pause_max_us", maxPauseSince(before, after))
	r.set("proc.heap_live_mib", after.heapMiB)
	r.set("proc.goroutines", float64(after.goroutines))
	for _, p := range cpuSharePkgs {
		r.set("cpu_share."+p, shares[p])
	}
	overhead := 0.0
	if refRate > 0 {
		overhead = 100 * (refRate - tracedRate) / refRate
	}
	r.set("trace_overhead_pct", overhead)
	r.notef("trace_overhead_pct: untraced reference %.1f/s against traced %.1f/s on the same set-up", refRate, tracedRate)
	path, err := spans.write(r.Workload)
	if err != nil {
		return err
	}
	r.notef("%d spans written to benchmark/%s", len(spans.spans), path)
	return nil
}

// setBudget reports the layer budget: the shadow pipeline's per-call
// costs summed along one operation's path, next to the measured CPU
// per operation, and the remainder neither explains.
func setBudget(r *result, layerSumNS, e2eUS float64, formula string) {
	r.set("budget.layer_sum_ns", layerSumNS)
	r.set("budget.e2e_ns", e2eUS*1e3)
	r.set("budget.unexplained_ns", e2eUS*1e3-layerSumNS)
	r.notef("budget.layer_sum_ns = %s", formula)
}

// tracedWire is the traced run of wire_churn (storm false) or
// wire_storm (storm true).
func tracedWire(r *result, seed int64, seconds int, all sizes, storm bool) error {
	sz := all.wire
	spans := &spanLog{}
	h, _, _, err := wireSetup(r, seed, sz, 1)
	if err != nil {
		return err
	}
	defer func() {
		if h != nil {
			h.close()
		}
	}()
	if !r.Correct {
		return nil
	}
	third := time.Duration(seconds) * time.Second / 3
	attach := func(on bool) {
		h.fl.mu.Lock()
		if on {
			h.fl.spans = spans
		} else {
			h.fl.spans = nil
		}
		h.fl.mu.Unlock()
	}
	var (
		refRate, tracedRate, e2eUS float64
		before, after              procSample
		ops                        uint64
	)
	var prof *cpuProfile
	if storm {
		forged, legit := &stormStream{c: h.c}, h.c.churnStream(seed, 0, legitMix)
		half := time.Duration(seconds) * time.Second / 2
		ref := h.storm(r, sz, half, forged, sz.stormWindow, legit)
		attach(true)
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
		tr := h.storm(r, sz, half, forged, sz.stormWindow, legit)
		refRate, tracedRate, e2eUS = ref.rate, tr.rate, ref.cpuUS
		before, after, ops = tr.before, tr.after, tr.alarms
		g := h.generatorView(tr.propagate, tr.late)
		g.set(r)
		r.set("gen.latency_p99_us", g.propagateP99)
	} else {
		streams := churnStreams(h, seed)
		ref := h.saturate(r, sz, third, streams)
		attach(true)
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
		tr := h.saturate(r, sz, third, streams)
		pc := h.paced(r, sz, third, streams)
		refRate, tracedRate, e2eUS = ref.rate, tr.rate, ref.cpuUS
		before, after, ops = tr.before, tr.after, tr.units
		scrapes := append(ref.scrapeMS, tr.scrapeMS...)
		r.set("telemetry.scrape_ms", median(scrapes))
		r.notef("telemetry.scrape_ms: median of %d live 1 Hz scrapes beside the writers", len(scrapes))
		h.generatorView(pc.propagate, pc.late).set(r)
		// The program's own view of detection latency, and how much of
		// the outside measurement it cannot see (socket and scheduling).
		d50, d99 := nsQuantiles(pc.detect)
		r.set("gen.latency_p99_us", d99)
		r.set("gen.detect_p50_us", d50)
		for _, st := range h.obs.Snapshot() {
			if st.Stage == "alarm" {
				own := float64(st.P50Ns) / 1e3
				r.set("obs.detect_p50_us", own)
				r.set("obs.detect_gap_us", d50-own)
			}
		}
	}
	shares, err := prof.stop()
	if err != nil {
		return err
	}
	attach(false)
	h.verifyCounters(r)
	h.verifySink(r)

	fl := h.fl
	fl.mu.Lock()
	echoShare := 0.0
	if fl.exportsSeen > 0 {
		echoShare = 100 * float64(fl.ownEcho) / float64(fl.exportsSeen)
	}
	fl.mu.Unlock()
	r.set("session.msgs_in", float64(h.cMsgsIn.Value()))
	r.set("session.teardowns", float64(h.teardowns.Load()))
	r.set("speaker.updates_in", float64(h.cUpdatesIn.Value()))
	r.set("speaker.routes_accepted", float64(h.cAccepted.Value()))
	r.set("speaker.routes_rejected", float64(h.cRejected.Value()))
	r.set("speaker.alarms", float64(h.cAlarms.Value()))
	r.set("speaker.updates_out", float64(h.cUpdatesOut.Value()))
	r.set("speaker.echo_share", echoShare)
	r.set("core.alarms", float64(len(h.spk.Alarms())))
	r.set("trace.ring_dropped", float64(h.trace.Dropped()))

	// The shadow pipeline runs with the validator gone: its 100k-route
	// heap would otherwise tax every allocating probe with GC work the
	// other workloads' probes do not pay.
	c := h.c
	h.close()
	h = nil
	runtime.GC()
	lc, err := probeWireLayers(r, spans, c)
	if err != nil {
		return err
	}
	if err := probeSession(r, spans, c); err != nil {
		return err
	}
	if storm {
		// Per alarm: frame+decode, the checker's conflict path, ROV
		// validate and classify, the alarm bundle; half the alarms also
		// resolve against the MOASRR store and purge, which scans the
		// Adj-RIB-In of every peer (the two sources hold routes; the
		// sink announces nothing, so its scan is free).
		sum := lc.readMsg + lc.checkConflict + lc.validate + lc.classify + lc.recordAlarmUS*1e3 +
			2*lc.traceRecord + lc.obsLifecycle + 6*lc.counterInc +
			0.5*(lc.resolve+2*lc.routesFromMS*1e6)
		setBudget(r, sum, e2eUS, "wire.read_msg + core.check_conflict + rpki.validate + rpki.classify + trace.record_alarm + 2*trace.record + obs.stamp_lifecycle + 6*telemetry.counter_inc + 0.5*(dnsval.resolve + 2*rib.routes_from)")
	} else {
		// Per update: frame+decode, the checker's fast path, the RIB
		// replace, three exports encoded, and the instrumentation each
		// stage pays (six ring events, ten counters, one stamp).
		sum := lc.readMsg + lc.check + lc.ribReplace + numReceivers*lc.encode +
			6*lc.traceRecord + lc.obsLifecycle + 10*lc.counterInc
		setBudget(r, sum, e2eUS, "wire.read_msg + core.check + rib.replace + 3*wire.encode + 6*trace.record + obs.stamp_lifecycle + 10*telemetry.counter_inc")
	}
	return tracedTail(r, spans, shares, before, after, ops, refRate, tracedRate)
}

// tracedFeed is the traced run of feed_replay.
func tracedFeed(r *result, seed int64, seconds int, sz sizes) error {
	spans := &spanLog{}
	fc, err := newFeedCorpus(seed, sz.feed)
	if err != nil {
		return err
	}
	entries := uint64(fc.ribEntries + fc.updateEntries)
	quarter := time.Duration(seconds) * time.Second / 4
	cpu0 := cpuSeconds()
	refRates, last, _, err := feedMRTPhase(r, fc, quarter, nil)
	if err != nil {
		return err
	}
	last.col.Close()
	e2eUS := (cpuSeconds() - cpu0) * 1e6 / float64(uint64(len(refRates))*entries)
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	before := takeProcSample()
	rates, last, stats, err := feedMRTPhase(r, fc, quarter, spans)
	if err != nil {
		return err
	}
	after := takeProcSample()
	defer last.col.Close()
	_, _, detect, counts, err := feedStreamPhase(r, fc, 2*quarter, sz.feed.bucket, spans)
	if err != nil {
		return err
	}
	shares, err := prof.stop()
	if err != nil {
		return err
	}
	_, d99 := nsQuantiles(detect)
	r.set("gen.latency_p99_us", d99)
	alarms := len(last.mon.Alarms())
	r.set("core.alarms", float64(alarms))
	r.set("monitor.alarms", float64(alarms))
	r.set("mrt.records", float64(stats.Records))
	r.set("rislive.delivered", float64(counts.Delivered))
	r.set("rislive.dropped", float64(counts.Dropped))
	r.set("rislive.parse_errors", float64(counts.ParseErrors))
	lc, err := probeFeedLayers(r, spans, fc, last)
	if err != nil {
		return err
	}
	// Per entry: its share of one record's read and decode, the
	// monitor's check, the collector's RIB mirror.
	setBudget(r, lc.mrtNext/lc.mrtEntriesPerRecord+lc.observe+lc.inject, e2eUS,
		"mrt.next / entries per record + monitor.observe + collector.inject")
	return tracedTail(r, spans, shares, before, after, uint64(len(rates))*entries, fastest(refRates), fastest(rates))
}

// tracedSim is the traced run of sim_sweep.
func tracedSim(r *result, seed int64, seconds int, sz sizes) error {
	spans := &spanLog{}
	su, err := newSimSetup(seed, sz.sim)
	if err != nil {
		return err
	}
	third := time.Duration(seconds) * time.Second / 3
	paperSets, paperRef := [][]sweepSpec{su.paper}, []string{su.ref}
	ref, err := simPhase(r, "paper", paperSets, third, paperRef, nil)
	if err != nil {
		return err
	}
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	before := takeProcSample()
	paper, err := simPhase(r, "paper", paperSets, third, paperRef, spans)
	if err != nil {
		return err
	}
	after := takeProcSample()
	cpu0 := cpuSeconds()
	internet, err := simPhase(r, "internet", su.internet, third, nil, spans)
	if err != nil {
		return err
	}
	// Whole laps and a part of one: price a run by the passes made.
	netUS := (cpuSeconds() - cpu0) * 1e6 / (float64(internet.passes) * float64(internet.lapRuns) / float64(len(su.internet)))
	single, _, err := singlePhase(r, su, spans)
	if err != nil {
		return err
	}
	shares, err := prof.stop()
	if err != nil {
		return err
	}
	_, p99 := nsQuantiles(single)
	r.set("gen.latency_p99_us", p99)
	lc, err := probeSimLayers(r, spans, seed, sz.sim.internetNodes)
	if err != nil {
		return err
	}
	// Per internet-scale run: one pooled reset plus every delivered
	// message as one engine event; the remainder is the decision
	// process, the intern tables and the census.
	setBudget(r, lc.resetMS*1e6+lc.messagesPerRun*lc.simEvent, netUS,
		"simbgp.reset + simbgp.messages_per_run * sim.event (against CPU per run of the internet phase)")
	return tracedTail(r, spans, shares, before, after, uint64(float64(paper.passes)*paper.lapMsgs), ref.deliveriesPerS(), paper.deliveriesPerS())
}
