// Package experiment is the harness that reproduces the paper's
// simulation study (§5): it selects origin and attacker ASes, assembles
// simbgp networks in the requested detection mode, runs them to
// quiescence in parallel, and aggregates the paper's metric — the
// percentage of non-attacker ASes that adopt a false route — over the
// paper's 15-run averaging scheme (3 origin sets x 5 attacker sets,
// footnote 4).
package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/rpki"
	"repro/internal/simbgp"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// VictimPrefix is the prefix under attack in every run; its identity is
// arbitrary (the paper's "prefix p").
var VictimPrefix = astypes.MustPrefix(0x83b30000, 16) // 131.179.0.0/16

// Detection selects the deployment of MOAS checking across the network.
type Detection int

// Detection deployments.
const (
	// DetectionOff: no node checks MOAS lists ("Normal BGP").
	DetectionOff Detection = iota + 1
	// DetectionFull: every node checks ("Full MOAS Detection").
	DetectionFull
	// DetectionPartial: a random fraction of nodes checks ("Half MOAS
	// Detection" when the fraction is 0.5).
	DetectionPartial
)

func (d Detection) String() string {
	switch d {
	case DetectionOff:
		return "normal-bgp"
	case DetectionFull:
		return "full-moas"
	case DetectionPartial:
		return "partial-moas"
	default:
		return "unknown"
	}
}

// Scenario fixes the random selections of one simulation run so the same
// setting can be replayed under different detection modes (the paper
// compares modes on identical settings).
type Scenario struct {
	Origins   []astypes.ASN
	Attackers []astypes.ASN
	// DeploySeed drives the random choice of MOAS-capable nodes under
	// partial deployment.
	DeploySeed int64
}

// RunConfig is one simulation run.
type RunConfig struct {
	Topology *topology.SampleResult
	Scenario Scenario
	// Detection mode; DeployFraction applies to DetectionPartial only.
	Detection      Detection
	DeployFraction float64
	// ForgeSupersetList makes attackers attach the valid MOAS list
	// extended with themselves (§4.1's forging attacker) instead of
	// announcing bare routes.
	ForgeSupersetList bool
	// StripMOASInTransit, when true, makes attacker nodes remove MOAS
	// communities from routes they propagate (tampering ablation; bare
	// false origination is the paper's model).
	StripMOASInTransit bool
	// ColdStart announces valid routes and the attack simultaneously
	// into an empty network instead of letting the valid routes converge
	// first.
	ColdStart bool
	// ValleyFree applies Gao-Rexford export policy over relationships
	// inferred from the topology (ablation; the paper's model floods).
	ValleyFree bool
	// ROACoverage is the probability that the victim prefix is covered
	// by ROAs authorizing the valid origins — the simulator-side model
	// of partial RPKI deployment. The draw is seeded from
	// Scenario.DeploySeed, so the same scenario sees the same RPKI state
	// under every detection mode being compared. With coverage, forged
	// announcements validate Invalid and the resulting alarms classify
	// likely-hijack; 0 disables RPKI for the run.
	ROACoverage float64
	// FreshNetwork disables the per-topology network pool and builds a
	// new simbgp.Network for this run, the pre-pooling behaviour. It
	// exists as the in-tree baseline for the evaluation benchmarks
	// (Benchmark*Baseline); results are identical either way.
	FreshNetwork bool
	// Recorder, if set, is attached to the network for the run's
	// duration: the flight recorder captures per-prefix propagation
	// events and forensic alarm bundles in virtual time (moas-sim
	// -trace). Pooled networks detach it on Reset before reuse.
	Recorder *trace.Recorder
}

// RunResult is the outcome of one run.
type RunResult struct {
	// Census is the paper's RIB-level metric; Forwarding is the stricter
	// traffic-level census (a node counts as hijacked when its packets
	// physically reach an attacker).
	Census     simbgp.Census
	Forwarding simbgp.Census
	Alarms     int
	// AlarmClasses tallies the network's raised alarms by their
	// RPKI/ROV cross-validated class (rpki.Classify). Without ROAs every
	// alarm degrades to the MOAS-provenance classes.
	AlarmClasses [rpki.NumClasses]uint64
	// Messages is the total number of UPDATE deliveries; ConvergeVirtual
	// is the virtual time at quiescence — the simulator's convergence
	// cost metrics.
	Messages        uint64
	ConvergeVirtual time.Duration
}

// roaSeedSalt decorrelates the ROA-coverage draw from the partial
// deployment permutation, which shares Scenario.DeploySeed.
const roaSeedSalt = 0x524f4173 // "ROAs"

// runJob indirects Run so tests can observe/abort sweep dispatch.
var runJob = Run

// netPools holds one sync.Pool of reusable *simbgp.Network per
// *topology.Graph. A sweep of hundreds of runs on one topology draws
// its networks from here and rewinds them with Reset instead of
// rebuilding every node, slot array, and adjacency table per run.
var netPools sync.Map // *topology.Graph -> *sync.Pool

// relCache memoizes topology.InferRelations per graph: relationships
// are a pure function of the topology, and re-inferring them for every
// ValleyFree run dominated sweep setup. Relations are read-only after
// construction, so sharing across concurrent runs is safe.
var relCache sync.Map // *topology.Graph -> *topology.Relations

// acquireNetwork returns a run-ready network for simCfg plus a release
// function to call once the run's results have been read out. Pooled
// networks are rewound with Reset; fresh ones are built from scratch.
func acquireNetwork(simCfg simbgp.Config, fresh bool) (*simbgp.Network, func(), error) {
	if fresh {
		net, err := simbgp.NewNetwork(simCfg)
		return net, func() {}, err
	}
	p, _ := netPools.LoadOrStore(simCfg.Topology, &sync.Pool{})
	pool := p.(*sync.Pool)
	if v := pool.Get(); v != nil {
		net := v.(*simbgp.Network)
		if err := net.Reset(simCfg); err != nil {
			return nil, nil, err
		}
		return net, func() { pool.Put(net) }, nil
	}
	net, err := simbgp.NewNetwork(simCfg)
	if err != nil {
		return nil, nil, err
	}
	return net, func() { pool.Put(net) }, nil
}

// Run executes one simulation run to quiescence.
func Run(cfg RunConfig) (RunResult, error) {
	if cfg.Topology == nil {
		return RunResult{}, fmt.Errorf("experiment: nil topology")
	}
	if len(cfg.Scenario.Origins) == 0 {
		return RunResult{}, fmt.Errorf("experiment: no origin ASes")
	}
	valid := core.NewList(cfg.Scenario.Origins...)
	resolver := simbgp.ResolverFunc(func(p astypes.Prefix) (core.List, bool) {
		if p == VictimPrefix {
			return valid, true
		}
		return core.List{}, false
	})
	simCfg := simbgp.Config{
		Topology: cfg.Topology.Graph,
		Resolver: resolver,
	}
	if cfg.ROACoverage < 0 || cfg.ROACoverage > 1 {
		return RunResult{}, fmt.Errorf("experiment: ROA coverage %v out of [0,1]", cfg.ROACoverage)
	}
	if cfg.ROACoverage > 0 {
		// The coverage draw reuses DeploySeed (salted so it is
		// independent of the deployment permutation): replaying one
		// scenario across modes keeps its RPKI state fixed.
		rng := rand.New(rand.NewSource(cfg.Scenario.DeploySeed ^ roaSeedSalt))
		if rng.Float64() < cfg.ROACoverage {
			roas := rpki.NewStore()
			for _, origin := range cfg.Scenario.Origins {
				roas.Add(rpki.ROA{Prefix: VictimPrefix, Origin: origin})
			}
			simCfg.RPKI = roas
		}
	}
	if cfg.ValleyFree {
		if r, ok := relCache.Load(cfg.Topology.Graph); ok {
			simCfg.Relations = r.(*topology.Relations)
		} else {
			rel := topology.InferRelations(cfg.Topology.Graph, cfg.Topology.Transit)
			relCache.Store(cfg.Topology.Graph, rel)
			simCfg.Relations = rel
		}
	}
	net, release, err := acquireNetwork(simCfg, cfg.FreshNetwork)
	if err != nil {
		return RunResult{}, fmt.Errorf("experiment: %w", err)
	}
	// Even a half-configured network goes back to the pool: the next
	// Reset rewinds whatever state this run left behind.
	defer release()
	if cfg.Recorder != nil {
		net.AttachRecorder(cfg.Recorder)
	}

	if err := applyDetection(net, cfg); err != nil {
		return RunResult{}, err
	}
	if cfg.StripMOASInTransit {
		for _, attacker := range cfg.Scenario.Attackers {
			if err := net.SetStripMOAS(attacker, true); err != nil {
				return RunResult{}, err
			}
		}
	}

	// The paper attaches an explicit MOAS list whenever a prefix is
	// multi-origin; single-origin routes rely on the implicit rule
	// ("Routes that originate from a single AS need not attach a MOAS
	// list", §4.3).
	announce := core.List{}
	if len(cfg.Scenario.Origins) > 1 {
		announce = valid
	}
	for _, origin := range cfg.Scenario.Origins {
		if err := net.Originate(origin, VictimPrefix, announce); err != nil {
			return RunResult{}, fmt.Errorf("experiment: originate: %w", err)
		}
	}
	// ColdStart announces valid and false routes into a fresh network
	// simultaneously (the paper's SSFnet setup); otherwise the valid
	// announcements converge first and the hijack hits an operating
	// network, where prefer-oldest selection shields tied paths.
	if !cfg.ColdStart {
		if err := net.Run(); err != nil {
			return RunResult{}, fmt.Errorf("experiment: converge valid routes: %w", err)
		}
	}
	for _, attacker := range cfg.Scenario.Attackers {
		forged := core.List{}
		if cfg.ForgeSupersetList {
			forged = valid.WithOrigin(attacker)
		}
		if err := net.OriginateInvalid(attacker, VictimPrefix, forged); err != nil {
			return RunResult{}, fmt.Errorf("experiment: attack: %w", err)
		}
	}
	if err := net.Run(); err != nil {
		return RunResult{}, fmt.Errorf("experiment: run: %w", err)
	}
	census := net.TakeCensus(VictimPrefix, valid)
	forwarding := net.TakeForwardingCensus(VictimPrefix, valid)
	alarms := 0
	for _, asn := range net.Nodes() {
		alarms += net.Node(asn).AlarmCount()
	}
	return RunResult{
		Census:          census,
		Forwarding:      forwarding,
		Alarms:          alarms,
		AlarmClasses:    net.AlarmClasses(),
		Messages:        net.MessageCount(),
		ConvergeVirtual: net.Engine().Now(),
	}, nil
}

func applyDetection(net *simbgp.Network, cfg RunConfig) error {
	switch cfg.Detection {
	case DetectionOff:
		return nil
	case DetectionFull:
		for _, asn := range net.Nodes() {
			if err := net.SetMode(asn, simbgp.ModeDetect); err != nil {
				return err
			}
		}
		return nil
	case DetectionPartial:
		frac := cfg.DeployFraction
		if frac <= 0 || frac > 1 {
			return fmt.Errorf("experiment: partial deployment fraction %v out of (0,1]", frac)
		}
		nodes := net.Nodes()
		rng := rand.New(rand.NewSource(cfg.Scenario.DeploySeed))
		perm := rng.Perm(len(nodes))
		capable := int(float64(len(nodes))*frac + 0.5)
		for _, idx := range perm[:capable] {
			if err := net.SetMode(nodes[idx], simbgp.ModeDetect); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("experiment: unknown detection mode %v", cfg.Detection)
	}
}

// Selections generates the paper's 15-run scheme: originSets distinct
// origin selections (from stub ASes) and, for each, attackerSets
// attacker selections (from all ASes, excluding the chosen origins).
//
// Multi-origin selections draw only from stubs with 2-octet ASNs:
// explicit MOAS-list communities carry origins in a 16-bit field and
// substitute AS_TRANS above it, so a 4-byte origin could not be listed
// faithfully. Paper topologies assign only small ASNs, making the
// filter a no-op there; on internet-scale power-law graphs it keeps
// victims among the (low-numbered, early-arrival) ASes.
func Selections(topo *topology.SampleResult, numOrigins, numAttackers, originSets, attackerSets int, seed int64) ([]Scenario, error) {
	stubs := topo.StubASes()
	if numOrigins > 1 {
		listable := make([]astypes.ASN, 0, len(stubs))
		for _, a := range stubs {
			if a <= astypes.Max2Octet {
				listable = append(listable, a)
			}
		}
		stubs = listable
	}
	if len(stubs) < numOrigins {
		return nil, fmt.Errorf("experiment: %d eligible stubs < %d origins", len(stubs), numOrigins)
	}
	all := topo.Graph.Nodes()
	if len(all)-numOrigins < numAttackers {
		return nil, fmt.Errorf("experiment: not enough ASes for %d attackers", numAttackers)
	}
	rng := rand.New(rand.NewSource(seed))
	scenarios := make([]Scenario, 0, originSets*attackerSets)
	for o := 0; o < originSets; o++ {
		origins := pick(rng, stubs, numOrigins, nil)
		originSet := make(map[astypes.ASN]bool, len(origins))
		for _, a := range origins {
			originSet[a] = true
		}
		for a := 0; a < attackerSets; a++ {
			attackers := pick(rng, all, numAttackers, originSet)
			scenarios = append(scenarios, Scenario{
				Origins:    origins,
				Attackers:  attackers,
				DeploySeed: rng.Int63(),
			})
		}
	}
	return scenarios, nil
}

// pick selects n distinct elements of pool uniformly at random,
// excluding members of skip.
func pick(rng *rand.Rand, pool []astypes.ASN, n int, skip map[astypes.ASN]bool) []astypes.ASN {
	var eligible []astypes.ASN
	for _, a := range pool {
		if !skip[a] {
			eligible = append(eligible, a)
		}
	}
	perm := rng.Perm(len(eligible))
	out := make([]astypes.ASN, n)
	for i := 0; i < n; i++ {
		out[i] = eligible[perm[i]]
	}
	return astypes.SortASNs(out)
}

// ModeSpec names one detection configuration of a sweep.
type ModeSpec struct {
	Label          string
	Detection      Detection
	DeployFraction float64
}

// SweepConfig describes one curve family: a topology, an origin count,
// attacker counts to sweep, and the detection modes to compare on
// identical scenarios.
type SweepConfig struct {
	Topology       *topology.SampleResult
	TopologyName   string
	NumOrigins     int
	AttackerCounts []int
	Modes          []ModeSpec
	// OriginSets x AttackerSets runs per point; defaults to the paper's
	// 3 x 5 when zero.
	OriginSets   int
	AttackerSets int
	Seed         int64
	// Parallelism bounds concurrent simulation runs; defaults to
	// GOMAXPROCS.
	Parallelism int
	// ForgeSupersetList propagates to every run.
	ForgeSupersetList bool
	// ColdStart propagates to every run.
	ColdStart bool
	// StripMOASInTransit propagates to every run.
	StripMOASInTransit bool
	// ValleyFree propagates to every run.
	ValleyFree bool
	// ROACoverage propagates to every run (simulator-side RPKI
	// deployment fraction; see RunConfig.ROACoverage).
	ROACoverage float64
	// FreshNetworks propagates RunConfig.FreshNetwork to every run
	// (benchmark baseline knob).
	FreshNetworks bool
}

// Point is one x-position of a sweep: the attacker percentage and, per
// mode, the mean adoption percentage over the 15 runs.
type Point struct {
	NumAttackers int
	AttackerPct  float64
	// MeanFalsePct is indexed like SweepConfig.Modes.
	MeanFalsePct []float64
	// MeanAlarms is the mean total alarms raised, per mode.
	MeanAlarms []float64
	// MeanMessages is the mean UPDATE deliveries to quiescence, per mode
	// (the protocol-overhead view of detection).
	MeanMessages []float64
	// StdDevFalsePct is the per-mode standard deviation of the adoption
	// percentage across the 15 runs — the figure's error bars.
	StdDevFalsePct []float64
	// MeanForwardPct is the mean traffic-level hijack percentage per
	// mode (>= MeanFalsePct: it additionally counts nodes whose packets
	// transit an attacker).
	MeanForwardPct []float64
	// AlarmClassTotals sums the per-class alarm tallies over the
	// point's runs, indexed [mode][class] in rpki.Class order.
	AlarmClassTotals [][rpki.NumClasses]uint64
	// FalseAlarmPct is, per mode, the percentage of the point's alarms
	// whose class fell below likely-hijack. Every simulated alarm stems
	// from a real forged origin, so under ROA coverage this is the
	// sweep's false-alarm (missed-classification) rate; 0 when the mode
	// raised no alarms.
	FalseAlarmPct []float64
}

// SweepResult is a full curve family.
type SweepResult struct {
	TopologyName string
	NumOrigins   int
	Modes        []ModeSpec
	Points       []Point
}

// Sweep runs the full curve family, parallelizing across runs.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	if cfg.OriginSets <= 0 {
		cfg.OriginSets = 3
	}
	if cfg.AttackerSets <= 0 {
		cfg.AttackerSets = 5
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if len(cfg.Modes) == 0 {
		return nil, fmt.Errorf("experiment: sweep with no modes")
	}
	total := cfg.Topology.Graph.NumNodes()

	type job struct {
		point, mode, scen int
		cfg               RunConfig
	}
	var jobs []job
	points := make([]Point, len(cfg.AttackerCounts))
	results := make([][][]RunResult, len(cfg.AttackerCounts))
	for pi, count := range cfg.AttackerCounts {
		points[pi] = Point{
			NumAttackers:     count,
			AttackerPct:      100 * float64(count) / float64(total),
			MeanFalsePct:     make([]float64, len(cfg.Modes)),
			MeanAlarms:       make([]float64, len(cfg.Modes)),
			MeanMessages:     make([]float64, len(cfg.Modes)),
			StdDevFalsePct:   make([]float64, len(cfg.Modes)),
			MeanForwardPct:   make([]float64, len(cfg.Modes)),
			AlarmClassTotals: make([][rpki.NumClasses]uint64, len(cfg.Modes)),
			FalseAlarmPct:    make([]float64, len(cfg.Modes)),
		}
		scenarios, err := Selections(cfg.Topology, cfg.NumOrigins, count,
			cfg.OriginSets, cfg.AttackerSets, cfg.Seed+int64(pi)*1_000_003)
		if err != nil {
			return nil, fmt.Errorf("experiment: point %d: %w", pi, err)
		}
		results[pi] = make([][]RunResult, len(cfg.Modes))
		for mi, mode := range cfg.Modes {
			results[pi][mi] = make([]RunResult, len(scenarios))
			for si, scen := range scenarios {
				jobs = append(jobs, job{
					point: pi, mode: mi, scen: si,
					cfg: RunConfig{
						Topology:           cfg.Topology,
						Scenario:           scen,
						Detection:          mode.Detection,
						DeployFraction:     mode.DeployFraction,
						ForgeSupersetList:  cfg.ForgeSupersetList,
						ColdStart:          cfg.ColdStart,
						StripMOASInTransit: cfg.StripMOASInTransit,
						ValleyFree:         cfg.ValleyFree,
						ROACoverage:        cfg.ROACoverage,
						FreshNetwork:       cfg.FreshNetworks,
					},
				})
			}
		}
	}

	// Fail fast: the first Run error closes done, which aborts dispatch
	// and makes the remaining workers drain without executing — a broken
	// config fails in seconds instead of grinding through the full sweep.
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	jobCh := make(chan job)
	done := make(chan struct{})
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				select {
				case <-done:
					continue // drain without running
				default:
				}
				res, err := runJob(j.cfg)
				if err != nil {
					errOnce.Do(func() {
						firstErr = err
						close(done)
					})
					continue
				}
				results[j.point][j.mode][j.scen] = res
			}
		}()
	}
dispatch:
	for _, j := range jobs {
		select {
		case jobCh <- j:
		case <-done:
			break dispatch
		}
	}
	close(jobCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	for pi := range points {
		for mi := range cfg.Modes {
			var alarmSum, msgSum float64
			var classSum [rpki.NumClasses]uint64
			pcts := make([]float64, 0, len(results[pi][mi]))
			fwd := make([]float64, 0, len(results[pi][mi]))
			for _, r := range results[pi][mi] {
				pcts = append(pcts, r.Census.FalsePct())
				fwd = append(fwd, r.Forwarding.FalsePct())
				alarmSum += float64(r.Alarms)
				msgSum += float64(r.Messages)
				for ci, v := range r.AlarmClasses {
					classSum[ci] += v
				}
			}
			n := float64(len(results[pi][mi]))
			points[pi].MeanFalsePct[mi] = stats.Mean(pcts)
			points[pi].StdDevFalsePct[mi] = stats.StdDev(pcts)
			points[pi].MeanForwardPct[mi] = stats.Mean(fwd)
			points[pi].MeanAlarms[mi] = alarmSum / n
			points[pi].MeanMessages[mi] = msgSum / n
			points[pi].AlarmClassTotals[mi] = classSum
			var classTotal uint64
			for _, v := range classSum {
				classTotal += v
			}
			if classTotal > 0 {
				points[pi].FalseAlarmPct[mi] =
					100 * float64(classTotal-classSum[rpki.ClassLikelyHijack]) / float64(classTotal)
			}
		}
	}
	return &SweepResult{
		TopologyName: cfg.TopologyName,
		NumOrigins:   cfg.NumOrigins,
		Modes:        cfg.Modes,
		Points:       points,
	}, nil
}

// AttackerCountsFor returns a sweep of attacker counts from one AS up to
// maxPct percent of the topology, suitable as SweepConfig.AttackerCounts.
func AttackerCountsFor(topo *topology.SampleResult, maxPct float64) []int {
	total := topo.Graph.NumNodes()
	maxCount := int(float64(total) * maxPct / 100)
	if maxCount < 1 {
		maxCount = 1
	}
	step := 1
	if maxCount > 12 {
		step = (maxCount + 11) / 12
	}
	var counts []int
	for c := 1; c <= maxCount; c += step {
		counts = append(counts, c)
	}
	if counts[len(counts)-1] != maxCount {
		counts = append(counts, maxCount)
	}
	return counts
}
