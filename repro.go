// Package repro is a Go implementation of the MOAS-list mechanism for
// detecting invalid routing announcements in the Internet, reproducing
// Zhao et al., "Detection of Invalid Routing Announcement in the
// Internet" (DSN 2002).
//
// The package is a thin facade over the implementation packages under
// internal/, naming the entry points of each deployment story:
//
//   - The MOAS list (List, NewList) that origins attach to routes.
//   - A live BGP-4 speaker (Speaker) with MOAS validation wired into
//     its import policy, running over TCP or any net.Conn.
//   - The AS-level simulation stack (NewSimNetwork) and experiment
//     harness (Sweep) that regenerate the paper's Figures 9-11.
//   - The measurement pipeline (MeasureMOAS) over synthetic RouteViews
//     dumps that regenerates Figures 4-5 and the §3 statistics.
//   - The off-line monitor (Monitor) and the DNS MOASRR origin
//     database (MOASRRStore) used to resolve alarms (§4.4).
//
// The package examples run the paper's scenarios end to end
// (go test -run Example -v .); DESIGN.md and EXPERIMENTS.md hold the
// system inventory and the paper-vs-measured record.
package repro

import (
	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/dnsval"
	"repro/internal/experiment"
	"repro/internal/measure"
	"repro/internal/monitor"
	"repro/internal/routegen"
	"repro/internal/simbgp"
	"repro/internal/speaker"
	"repro/internal/topology"
)

// Fundamental routing types and constructors.
type (
	// ASN is a 2-octet autonomous system number.
	ASN = astypes.ASN
	// Prefix is an IPv4 CIDR prefix.
	Prefix = astypes.Prefix
	// List is a MOAS list: the set of ASes entitled to originate a
	// prefix.
	List = core.List
)

var (
	// MustPrefix builds a prefix from an address and length; panics on
	// a malformed pair.
	MustPrefix = astypes.MustPrefix
	// NewSeqPath builds a single-sequence AS path.
	NewSeqPath = astypes.NewSeqPath
	// NewList builds a canonical MOAS list.
	NewList = core.NewList
)

// Live BGP speaker (internal/speaker, internal/session, internal/wire).
type (
	// Speaker is a complete BGP-4 speaker with MOAS validation.
	Speaker = speaker.Speaker
	// SpeakerConfig parameterizes a Speaker.
	SpeakerConfig = speaker.Config
	// ValidationMode selects the speaker's MOAS checking behaviour.
	ValidationMode = speaker.ValidationMode
)

// NewSpeaker builds a Speaker.
var NewSpeaker = speaker.New

// Speaker validation modes.
const (
	ValidationOff  = speaker.ValidationOff
	ValidationDrop = speaker.ValidationDrop
)

// Simulation stack (internal/simbgp, internal/experiment,
// internal/topology).
type (
	// SimConfig parameterizes a simulated network.
	SimConfig = simbgp.Config
	// ResolverFunc adapts a function to the conflict Resolver interface.
	ResolverFunc = simbgp.ResolverFunc
	// SweepConfig describes one figure's curve family.
	SweepConfig = experiment.SweepConfig
	// ModeSpec names one detection configuration within a sweep.
	ModeSpec = experiment.ModeSpec
)

var (
	// NewGraph returns an empty AS-level peering graph.
	NewGraph = topology.NewGraph
	// BuildPaperTopologies produces the 25/46/63-AS topologies.
	BuildPaperTopologies = topology.BuildPaperTopologies
	// NewSimNetwork builds a simulated network over a topology graph.
	NewSimNetwork = simbgp.NewNetwork
	// Sweep runs a full curve family in parallel.
	Sweep = experiment.Sweep
	// AttackerCountsFor builds a sweep's attacker-count axis.
	AttackerCountsFor = experiment.AttackerCountsFor
)

// Node modes and detection deployments.
const (
	SimModeDetect = simbgp.ModeDetect
	DetectionOff  = experiment.DetectionOff
	DetectionFull = experiment.DetectionFull
)

// Measurement pipeline (internal/routegen, internal/measure).
var (
	// NewDumpGenerator builds the synthetic RouteViews dump generator.
	NewDumpGenerator = routegen.New
	// DefaultDumpConfig is calibrated against the paper's §3 numbers.
	DefaultDumpConfig = routegen.DefaultConfig
	// MeasureMOAS runs the full pipeline over a generator's series.
	MeasureMOAS = measure.Run
)

// Off-line monitor and MOASRR database (internal/monitor, internal/dnsval).
type (
	// Monitor is the off-line MOAS checking process of §4.2.
	Monitor = monitor.Monitor
	// MOASRRStore is the DNS MOASRR origin database of §4.4.
	MOASRRStore = dnsval.Store
)

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
