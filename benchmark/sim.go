package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/topology"
)

type simSizes struct {
	internetNodes int
	setups        int
	// paperFigures selects the paper phase's sweeps: all of Figures 9,
	// 10 and 11, or (toy) Figure 9 on the 46-AS topology alone.
	allFigures bool
}

var fullSim = simSizes{internetNodes: 10_000, setups: 3, allFigures: true}
var toySim = simSizes{internetNodes: 300, setups: 1}

// sweepSpec is one experiment.Sweep call.
type sweepSpec struct {
	figure string
	cfg    experiment.SweepConfig
}

func (s sweepSpec) runs() int {
	os, as := s.cfg.OriginSets, s.cfg.AttackerSets
	if os == 0 {
		os = 3
	}
	if as == 0 {
		as = 5
	}
	return len(s.cfg.AttackerCounts) * os * as * len(s.cfg.Modes)
}

var (
	modesOffFull = []experiment.ModeSpec{
		{Label: "Normal BGP", Detection: experiment.DetectionOff},
		{Label: "Full MOAS Detection", Detection: experiment.DetectionFull},
	}
	modesOffHalfFull = []experiment.ModeSpec{
		{Label: "Normal BGP", Detection: experiment.DetectionOff},
		{Label: "Half MOAS Detection", Detection: experiment.DetectionPartial, DeployFraction: 0.5},
		{Label: "Full MOAS Detection", Detection: experiment.DetectionFull},
	}
)

// paperSpecs are the sweeps behind Figures 9, 10 and 11 exactly as
// cmd/moas-sim runs them: attacker counts up to 35% of the topology,
// cold start, the paper's 3x5 scenario sets.
func paperSpecs(set *topology.PaperSet, seed int64, all bool) []sweepSpec {
	mk := func(fig, name string, t *topology.SampleResult, origins int, modes []experiment.ModeSpec) sweepSpec {
		return sweepSpec{fig, experiment.SweepConfig{
			Topology: t, TopologyName: name, NumOrigins: origins,
			AttackerCounts: experiment.AttackerCountsFor(t, 35),
			Modes:          modes, Seed: seed, ColdStart: true, Parallelism: 2,
		}}
	}
	if !all {
		return []sweepSpec{mk("fig9", "46", set.T46, 1, modesOffFull)}
	}
	var out []sweepSpec
	for _, o := range []int{1, 2} {
		out = append(out, mk("fig9", "46", set.T46, o, modesOffFull))
	}
	for _, o := range []int{1, 2} {
		out = append(out,
			mk("fig10", "25", set.T25, o, modesOffFull),
			mk("fig10", "46", set.T46, o, modesOffFull),
			mk("fig10", "63", set.T63, o, modesOffFull))
	}
	out = append(out,
		mk("fig11", "46", set.T46, 1, modesOffHalfFull),
		mk("fig11", "63", set.T63, 1, modesOffHalfFull))
	return out
}

// internetSpecs are cmd/moas-sim -experiment 4's hijack scenarios on
// one power-law topology: 1, 2 and 4 rogue ASes, 1x3 scenario sets.
// What a scenario costs depends on which stubs the sweep seed picks, so
// the internet phase runs internetLaps such sets, each with a sweep
// seed of its own, and reports on the lot.
func internetSpecs(t *topology.SampleResult, sweepSeed int64) []sweepSpec {
	var out []sweepSpec
	for _, o := range []int{1, 2} {
		out = append(out, sweepSpec{"internet", experiment.SweepConfig{
			Topology: t, TopologyName: fmt.Sprintf("powerlaw-%d", t.Graph.NumNodes()), NumOrigins: o,
			AttackerCounts: []int{1, 2, 4}, Modes: modesOffFull, Seed: sweepSeed, ColdStart: true,
			Parallelism: 2, OriginSets: 1, AttackerSets: 3,
		}})
	}
	return out
}

const internetLaps = 4

// singleRuns is how many single Internet-scale simulations the latency
// reading is the median of, each with an origin and an attacker pick of
// its own: what a run costs depends mostly on where its origin sits.
const singleRuns = 49

// simSetup is everything sim_sweep generates from the seed: the
// topologies, the sweeps over them, and the paper phase's reference.
type simSetup struct {
	paper    []sweepSpec
	internet [][]sweepSpec
	topo     *topology.SampleResult
	single   []experiment.Scenario
	// ref is the oracle for the paper phase: the same sweeps run
	// serially on freshly built networks, the simplest path through the
	// simulator, must produce byte-identical CSV.
	ref string
}

func newSimSetup(seed int64, sz simSizes) (*simSetup, error) {
	set, err := topology.BuildPaperTopologies(seed)
	if err != nil {
		return nil, err
	}
	topo, err := topology.GeneratePowerLaw(topology.DefaultPowerLawParams(sz.internetNodes), seed)
	if err != nil {
		return nil, err
	}
	su := &simSetup{paper: paperSpecs(set, seed, sz.allFigures), topo: topo}
	for k := int64(0); k < internetLaps; k++ {
		su.internet = append(su.internet, internetSpecs(topo, seed*internetLaps+k))
	}
	if su.single, err = experiment.Selections(topo, 1, 1, singleRuns, 1, seed); err != nil {
		return nil, err
	}
	serial := make([]sweepSpec, len(su.paper))
	for i, s := range su.paper {
		s.cfg.Parallelism, s.cfg.FreshNetworks = 1, true
		serial[i] = s
	}
	if su.ref, _, _, err = sweepOnce(serial, nil, 0); err != nil {
		return nil, err
	}
	return su, nil
}

// sweepOnce runs every spec once and returns the SHA-256 of their
// concatenated experiment.WriteCSV output, each sweep's wall time, and
// the number of simulated UPDATE deliveries the sweeps made.
func sweepOnce(specs []sweepSpec, spans *spanLog, parent uint64) (hash string, durs []time.Duration, msgs float64, err error) {
	var csv bytes.Buffer
	for _, s := range specs {
		t0 := time.Now()
		res, err := experiment.Sweep(s.cfg)
		if err != nil {
			return "", nil, 0, err
		}
		d := time.Since(t0)
		durs = append(durs, d)
		for _, p := range res.Points {
			for mi := range res.Modes {
				msgs += p.MeanMessages[mi] * float64(s.runs()/len(s.cfg.AttackerCounts)/len(s.cfg.Modes))
			}
		}
		if spans != nil {
			spans.add(parent, parent, "experiment."+s.figure, sinceEpoch(t0), sinceEpoch(t0.Add(d)), s.runs())
		}
		if err := experiment.WriteCSV(&csv, res); err != nil {
			return "", nil, 0, err
		}
	}
	sum := sha256.Sum256(csv.Bytes())
	return hex.EncodeToString(sum[:]), durs, msgs, nil
}

// simPhaseOut is what looping over a phase's sets of sweeps measured.
// One lap is one pass over every set.
type simPhaseOut struct {
	passes  int     // passes made, over all sets
	lapRuns int     // (scenario x mode) simulations in one lap
	lapMsgs float64 // simulated UPDATE deliveries in one lap
	lapS    float64 // the sets' median pass times, summed
	hash    string  // SHA-256 over the sets' CSV hashes
}

func (o simPhaseOut) deliveriesPerS() float64 { return o.lapMsgs / o.lapS }
func (o simPhaseOut) runsPerS() float64       { return float64(o.lapRuns) / o.lapS }

// simPhase passes over sets in turn for dur (every set at least twice).
// A pass whose CSV hash differs from its set's entry in want (or, where
// want is nil, from the set's first pass) fails all its runs.
func simPhase(r *result, name string, sets [][]sweepSpec, dur time.Duration, want []string, spans *spanLog) (out simPhaseOut, err error) {
	hashes := make([]string, len(sets))
	copy(hashes, want)
	times := make([][]float64, len(sets))
	for start := time.Now(); out.passes < 2*len(sets) || time.Since(start) < dur; out.passes++ {
		k := out.passes % len(sets)
		runs := 0
		for _, s := range sets[k] {
			runs += s.runs()
		}
		var parent uint64
		t0 := time.Now()
		if spans != nil {
			parent = spans.add(0, 0, "sim."+name+"_pass", sinceEpoch(t0), sinceEpoch(t0), runs)
		}
		got, _, msgs, err := sweepOnce(sets[k], spans, parent)
		if err != nil {
			return out, err
		}
		el := time.Since(t0)
		if out.passes < len(sets) {
			out.lapRuns += runs
			out.lapMsgs += msgs
		}
		times[k] = append(times[k], el.Seconds())
		r.Attempted += int64(runs)
		if hashes[k] == "" {
			hashes[k] = got
		} else if got != hashes[k] {
			r.fail(int64(runs), "%s sweep CSV hash %s differs from the reference %s", name, got[:12], hashes[k][:12])
		}
	}
	for _, ts := range times {
		out.lapS += median(ts)
	}
	sum := sha256.Sum256([]byte(strings.Join(hashes, "")))
	out.hash = hex.EncodeToString(sum[:])
	return out, nil
}

// singleRunDeliveries is the run size single-run latency is quoted at:
// a 10k-AS hijack delivers 60-110 thousand UPDATEs depending on where
// the seed puts its origin, and its wall time is proportional.
const singleRunDeliveries = 100_000

// singlePhase runs each of su.single on its own, one hijack with full
// detection on a pooled network, and returns each run's wall time scaled
// to singleRunDeliveries, and the unscaled times in milliseconds: what
// one Internet-scale simulation makes its user wait, where the internet
// phase's rate is what two cores get through together.
func singlePhase(r *result, su *simSetup, spans *spanLog) (scaledNs []int64, rawMS []float64, err error) {
	for i, sc := range su.single {
		t0 := time.Now()
		res, err := experiment.Run(experiment.RunConfig{
			Topology: su.topo, Scenario: sc, Detection: experiment.DetectionFull, ColdStart: true,
		})
		if err != nil {
			return nil, nil, err
		}
		el := time.Since(t0)
		spans.add(0, uint64(i+1), "sim.single_run", sinceEpoch(t0), sinceEpoch(t0.Add(el)), 1)
		r.Attempted++
		if res.Messages == 0 || res.Alarms == 0 {
			r.fail(1, "single run %d delivered %d updates and raised %d alarms", i, res.Messages, res.Alarms)
			continue
		}
		scaledNs = append(scaledNs, int64(float64(el)*singleRunDeliveries/float64(res.Messages)))
		rawMS = append(rawMS, float64(el)/1e6)
	}
	return scaledNs, rawMS, nil
}

// runSimSweep is the paper's evaluation: the control that must not
// move for any wire, RIB or instrumentation change.
func runSimSweep(seed int64, seconds int, traced bool, sz sizes) (*result, error) {
	r := newResult("sim_sweep", seed, traced)
	if traced {
		return r, tracedSim(r, seed, seconds, sz)
	}
	var (
		setups []float64
		su     *simSetup
		err    error
	)
	for k := 0; k < sz.sim.setups; k++ {
		t0 := time.Now()
		if su, err = newSimSetup(seed, sz.sim); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	half := time.Duration(seconds) * time.Second / 2
	cpu0 := cpuSeconds()
	paper, err := simPhase(r, "paper", [][]sweepSpec{su.paper}, half, []string{su.ref}, nil)
	if err != nil {
		return nil, err
	}
	cpuUS := (cpuSeconds() - cpu0) * 1e6 / (float64(paper.passes) * paper.lapMsgs)
	internet, err := simPhase(r, "internet", su.internet, half, nil, nil)
	if err != nil {
		return nil, err
	}
	single, singleMS, err := singlePhase(r, su, nil)
	if err != nil {
		return nil, err
	}
	// Two collections: the first only moves the pooled networks of the
	// last sweep to the pool's victim cache, and whether they were there
	// already depends on when the last background cycle ran.
	runtime.GC()
	heap := liveHeapMiB()
	p50, _ := nsQuantiles(single)
	r.set("setup_s", median(setups))
	r.set("primary_per_s", paper.deliveriesPerS())
	r.set("secondary_per_s", internet.deliveriesPerS())
	r.set("cpu_us_per_op", cpuUS)
	r.set("heap_mib", heap)
	r.set("latency_p50_us", p50)
	r.notef("setup_s: median of %d set-ups (paper 25/46/63-AS and %d-AS power-law topologies, scenario picks, serial reference sweep)", len(setups), sz.sim.internetNodes)
	r.notef("primary_per_s = simulated UPDATE deliveries per second on the paper's figures (%.0f runs/s): median of %d passes of %d sweeps, %d (scenario x mode) runs and %.0f deliveries each; CSV sha256 %s = serial fresh-network reference",
		paper.runsPerS(), paper.passes, len(su.paper), paper.lapRuns, paper.lapMsgs, su.ref[:16])
	r.notef("secondary_per_s = simulated UPDATE deliveries per second on %d ASes (%.1f runs/s): %d passes over %d scenario sets of %d runs, each set timed by its median pass; CSV sha256 %s, every set equal across its passes",
		sz.sim.internetNodes, internet.runsPerS(), internet.passes, len(su.internet), internet.lapRuns/len(su.internet), internet.hash[:16])
	r.notef("cpu_us_per_op: process CPU per simulated delivery, paper phase")
	r.notef("latency = one %d-AS hijack simulated on its own (pooled network, full detection), per %d deliveries: median of %d scenarios, %.1f ms as run",
		sz.sim.internetNodes, singleRunDeliveries, len(single), median(singleMS))
	r.Hashes = map[string]string{"paper_csv_sha256": su.ref, "internet_csv_sha256": internet.hash}
	return r, nil
}
