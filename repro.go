// Package repro is a Go implementation of the MOAS-list mechanism for
// detecting invalid routing announcements in the Internet, reproducing
// Zhao et al., "Detection of Invalid Routing Announcement in the
// Internet" (DSN 2002).
//
// The package is a facade over the implementation packages; it exposes
// everything a downstream user needs:
//
//   - Core MOAS-list mechanism: List, Checker, the community encoding
//     (MLVal), the implicit-list rule, and Conflict alarms.
//   - A live BGP-4 speaker (Speaker) with MOAS validation wired into
//     its import policy, running over TCP or any net.Conn.
//   - The AS-level simulation stack (SimNetwork) and experiment harness
//     (Sweep and friends) that regenerate the paper's Figures 9-11.
//   - The measurement pipeline (MeasureMOAS) over synthetic RouteViews
//     dumps that regenerates Figures 4-5 and the §3 statistics.
//   - The off-line monitor (Monitor) and the DNS MOASRR origin
//     database (MOASRRStore) used to resolve alarms (§4.4).
//
// See the examples directory for runnable end-to-end scenarios, and
// DESIGN.md / EXPERIMENTS.md for the system inventory and the
// paper-vs-measured record.
package repro

import (
	"repro/internal/astypes"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/dnsval"
	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/mibcheck"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/rib"
	"repro/internal/routegen"
	"repro/internal/simbgp"
	"repro/internal/speaker"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Fundamental routing types.
type (
	// ASN is a 2-octet autonomous system number.
	ASN = astypes.ASN
	// Prefix is an IPv4 CIDR prefix.
	Prefix = astypes.Prefix
	// ASPath is a BGP AS path.
	ASPath = astypes.ASPath
	// Community is an RFC 1997 community value.
	Community = astypes.Community
)

// Fundamental constructors and parsers.
var (
	// ParsePrefix parses "a.b.c.d/len".
	ParsePrefix = astypes.ParsePrefix
	// MustPrefix is ParsePrefix for static tables; panics on error.
	MustPrefix = astypes.MustPrefix
	// ParseASN parses a decimal AS number.
	ParseASN = astypes.ParseASN
	// ParseASPath parses "701 1239 {4006 4544}".
	ParseASPath = astypes.ParseASPath
	// NewSeqPath builds a single-sequence AS path.
	NewSeqPath = astypes.NewSeqPath
	// NewCommunity builds a community from (ASN, value).
	NewCommunity = astypes.NewCommunity
)

// MOAS-list mechanism (the paper's contribution, internal/core).
type (
	// List is a MOAS list: the set of ASes entitled to originate a
	// prefix.
	List = core.List
	// Checker performs per-router MOAS-list consistency checking.
	Checker = core.Checker
	// Conflict is one detected MOAS inconsistency (an alarm).
	Conflict = core.Conflict
	// Announcement is the checker's view of a received route.
	Announcement = core.Announcement
	// Verdict is the outcome of checking one announcement.
	Verdict = core.Verdict
)

// MOAS-list constructors and constants.
var (
	// NewList builds a canonical MOAS list.
	NewList = core.NewList
	// ImplicitList is the single-origin list an unlisted route implies.
	ImplicitList = core.ImplicitList
	// FromCommunities extracts a MOAS list from a community attribute.
	FromCommunities = core.FromCommunities
	// EffectiveList resolves explicit-or-implicit list for a route.
	EffectiveList = core.EffectiveList
	// NewChecker builds a Checker.
	NewChecker = core.NewChecker
)

// MLVal is the reserved community value marking a MOAS-list member.
const MLVal = core.MLVal

// Checker verdicts.
const (
	VerdictConsistent      = core.VerdictConsistent
	VerdictConflict        = core.VerdictConflict
	VerdictOriginNotListed = core.VerdictOriginNotListed
)

// Live BGP speaker (internal/speaker, internal/session, internal/wire).
type (
	// Speaker is a complete BGP-4 speaker with MOAS validation.
	Speaker = speaker.Speaker
	// SpeakerConfig parameterizes a Speaker.
	SpeakerConfig = speaker.Config
	// ValidationMode selects the speaker's MOAS checking behaviour.
	ValidationMode = speaker.ValidationMode
	// Route is one RIB entry.
	Route = rib.Route
	// RIB is a speaker's routing table.
	RIB = rib.Table
	// Update is a decoded BGP UPDATE message.
	Update = wire.Update
)

// NewSpeaker builds a Speaker.
var NewSpeaker = speaker.New

// Speaker validation modes.
const (
	ValidationOff   = speaker.ValidationOff
	ValidationAlarm = speaker.ValidationAlarm
	ValidationDrop  = speaker.ValidationDrop
)

// Simulation stack (internal/sim, internal/simbgp, internal/experiment).
type (
	// SimNetwork is the event-driven AS-level BGP network.
	SimNetwork = simbgp.Network
	// SimConfig parameterizes a SimNetwork.
	SimConfig = simbgp.Config
	// SimNode is one simulated AS.
	SimNode = simbgp.Node
	// Census is the false-route adoption census.
	Census = simbgp.Census
	// ResolverFunc adapts a function to the conflict Resolver interface.
	ResolverFunc = simbgp.ResolverFunc
	// Scenario fixes origin/attacker selections for one run.
	Scenario = experiment.Scenario
	// RunConfig is one simulation run of the harness.
	RunConfig = experiment.RunConfig
	// RunResult is the outcome of one run.
	RunResult = experiment.RunResult
	// SweepConfig describes one figure's curve family.
	SweepConfig = experiment.SweepConfig
	// SweepResult is the produced curve family.
	SweepResult = experiment.SweepResult
	// ModeSpec names one detection configuration within a sweep.
	ModeSpec = experiment.ModeSpec
	// Detection selects a deployment of MOAS checking.
	Detection = experiment.Detection
)

// Simulation constructors and harness entry points.
var (
	// NewSimNetwork builds a simulated network over a topology graph.
	NewSimNetwork = simbgp.NewNetwork
	// RunExperiment executes one configured simulation run.
	RunExperiment = experiment.Run
	// Sweep runs a full curve family in parallel.
	Sweep = experiment.Sweep
	// SelectScenarios generates the paper's 15-run selection scheme.
	SelectScenarios = experiment.Selections
	// AttackerCountsFor builds a sweep's attacker-count axis.
	AttackerCountsFor = experiment.AttackerCountsFor
)

// Node modes and detection deployments.
const (
	SimModeNormal    = simbgp.ModeNormal
	SimModeDetect    = simbgp.ModeDetect
	DetectionOff     = experiment.DetectionOff
	DetectionFull    = experiment.DetectionFull
	DetectionPartial = experiment.DetectionPartial
)

// Topology construction (internal/topology).
type (
	// Graph is an undirected AS-level peering graph.
	Graph = topology.Graph
	// Inference is a topology reconstructed from AS paths.
	Inference = topology.Inference
	// SampleResult is a §5.1-sampled simulation topology.
	SampleResult = topology.SampleResult
	// PaperSet bundles the 25/46/63-AS topologies.
	PaperSet = topology.PaperSet
	// InternetParams sizes the synthetic Internet model.
	InternetParams = topology.InternetParams
)

// Topology constructors.
var (
	// NewGraph returns an empty peering graph.
	NewGraph = topology.NewGraph
	// InferFromPaths reconstructs a topology from observed AS paths.
	InferFromPaths = topology.InferFromPaths
	// SampleTopology applies the §5.1 stub-sampling construction.
	SampleTopology = topology.Sample
	// BuildPaperTopologies produces the 25/46/63-AS topologies.
	BuildPaperTopologies = topology.BuildPaperTopologies
	// GenerateInternet builds the synthetic Internet model.
	GenerateInternet = topology.GenerateInternet
	// DefaultInternetParams is the calibrated model sizing.
	DefaultInternetParams = topology.DefaultInternetParams
)

// Measurement pipeline (internal/routegen, internal/measure).
type (
	// DumpGenerator produces the synthetic RouteViews dump series.
	DumpGenerator = routegen.Generator
	// DumpConfig parameterizes the generator.
	DumpConfig = routegen.Config
	// Dump is one day's routing-table snapshot.
	Dump = routegen.Dump
	// DumpEntry is one table line.
	DumpEntry = routegen.Entry
	// Analysis accumulates MOAS statistics over a dump series.
	Analysis = measure.Analysis
	// MeasureSummary is the §3 headline numbers.
	MeasureSummary = measure.Summary
)

// Measurement constructors and entry points.
var (
	// NewDumpGenerator builds a dump generator.
	NewDumpGenerator = routegen.New
	// DefaultDumpConfig is calibrated against the paper's §3 numbers.
	DefaultDumpConfig = routegen.DefaultConfig
	// NewAnalysis returns an empty measurement analysis.
	NewAnalysis = measure.NewAnalysis
	// MeasureMOAS runs the full pipeline over a generator's series.
	MeasureMOAS = measure.Run
	// WriteDump serializes a dump as an MRT TABLE_DUMP_V2 archive.
	WriteDump = routegen.WriteMRT
)

// Off-line monitor and MOASRR database (internal/monitor, internal/dnsval).
type (
	// Monitor is the off-line MOAS checking process of §4.2.
	Monitor = monitor.Monitor
	// MonitorAlarm is one monitor finding.
	MonitorAlarm = monitor.Alarm
	// MOASCase is a prefix with multiple visible origins.
	MOASCase = monitor.MOASCase
	// MOASRRStore is the DNS MOASRR origin database of §4.4.
	MOASRRStore = dnsval.Store
	// MOASRR is one origin-authorization record.
	MOASRR = dnsval.MOASRR
)

// Monitor and store constructors.
var (
	// NewMonitor returns an empty monitor.
	NewMonitor = monitor.New
	// WithMonitorResolver classifies monitor alarms against a database.
	WithMonitorResolver = monitor.WithResolver
	// NewMOASRRStore returns an empty MOASRR database.
	NewMOASRRStore = dnsval.NewStore
	// WithSigningKey enables MOASRR record signing (DNSSEC stand-in).
	WithSigningKey = dnsval.WithSigningKey
)

// Live-plane data collection, fleet management and orchestration
// (internal/collector, internal/daemon, internal/mibcheck,
// internal/report).
type (
	// Collector is a Route-Views-style passive route archive.
	Collector = collector.Collector
	// CollectorConfig parameterizes a Collector.
	CollectorConfig = collector.Config
	// Daemon is a config-driven deployable speaker.
	Daemon = daemon.Daemon
	// DaemonConfig is the moas-speaker JSON configuration.
	DaemonConfig = daemon.Config
	// MIBClient polls speaker MIB endpoints and cross-checks MOAS lists.
	MIBClient = mibcheck.Client
	// MIBFinding is one fleet-wide MOAS inconsistency.
	MIBFinding = mibcheck.Finding
	// EvalOptions configures a full paper-evaluation run.
	EvalOptions = report.Options
	// EvalReport is the rendered evaluation result.
	EvalReport = report.Report
	// Relations classifies AS peerings (provider/customer/peer).
	Relations = topology.Relations
)

// Constructors and entry points for the operational components.
var (
	// NewCollector builds a passive route collector.
	NewCollector = collector.New
	// LoadDaemonConfig parses a moas-speaker configuration.
	LoadDaemonConfig = daemon.Load
	// BuildDaemon assembles and starts a configured speaker.
	BuildDaemon = daemon.Build
	// NewMIBClient builds a MIB-polling management client.
	NewMIBClient = mibcheck.New
	// CrossCheckMIBs compares per-prefix MOAS lists across routers.
	CrossCheckMIBs = mibcheck.CrossCheck
	// RunEvaluation executes the full paper evaluation.
	RunEvaluation = report.Run
	// InferRelations classifies peerings with the degree heuristic.
	InferRelations = topology.InferRelations
	// NewRelations returns an empty relationship table.
	NewRelations = topology.NewRelations
)
