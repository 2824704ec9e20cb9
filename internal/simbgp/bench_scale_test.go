package simbgp

import (
	"runtime"
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/rib"
	"repro/internal/topology"
)

// The BenchmarkSimScale family reports the compact engine's
// internet-scale numbers: convergence throughput in nodes/s,
// steady-state bytes of network state per node, and allocs/op for a
// full converge-attack-converge cycle at 10k and 70k ASes. The 1k pair
// benchmarks the identical workload against the pre-refactor map layout
// (one rib.Table, one advertised map and one resolved map per node), so
// the pair documents the compaction factor.

// benchConverge measures the compact engine: per iteration one pooled
// Reset, a valid origination converged, one forged-origin attack
// converged.
func benchConverge(b *testing.B, nodes int) {
	res, err := topology.GeneratePowerLaw(topology.DefaultPowerLawParams(nodes), 42)
	if err != nil {
		b.Fatal(err)
	}
	origin, attacker := scaleScenario(res)
	valid := core.NewList(origin)
	cfg := Config{Topology: res.Graph, Resolver: resolverFor(valid)}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	net, err := NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	iter := func() {
		if err := net.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		for _, asn := range net.Nodes() {
			if asn != attacker {
				if err := net.SetMode(asn, ModeDetect); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := net.Originate(origin, victim, core.List{}); err != nil {
			b.Fatal(err)
		}
		if err := net.Run(); err != nil {
			b.Fatal(err)
		}
		if err := net.OriginateInvalid(attacker, victim, core.List{}); err != nil {
			b.Fatal(err)
		}
		if err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
	iter() // warm the intern tables and event pools before measuring
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	bytesPerNode := heapPerNode(before, after, nodes)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
	// ResetTimer discards earlier user metrics, so both report here.
	b.ReportMetric(bytesPerNode, "state-bytes/node")
	b.ReportMetric(float64(nodes)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
}

// heapPerNode is the live-heap growth per topology node between two
// GC'd MemStats snapshots.
func heapPerNode(before, after runtime.MemStats, nodes int) float64 {
	if after.HeapAlloc <= before.HeapAlloc {
		return 0
	}
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(nodes)
}

func BenchmarkSimScaleConverge1k(b *testing.B)  { benchConverge(b, 1_000) }
func BenchmarkSimScaleConverge10k(b *testing.B) { benchConverge(b, 10_000) }
func BenchmarkSimScaleConverge70k(b *testing.B) { benchConverge(b, 70_000) }

// baseNode is the pre-refactor per-node state layout: a rib.Table of
// cloned *rib.Route values plus per-peer advertised maps.
type baseNode struct {
	asn        astypes.ASN
	neighbors  []astypes.ASN
	table      *rib.Table
	advertised map[astypes.ASN]map[astypes.Prefix]bool
}

type baseMsg struct {
	to, from astypes.ASN
	route    *rib.Route
}

// baselineNetwork builds the map-layout network.
func baselineNetwork(g *topology.Graph) map[astypes.ASN]*baseNode {
	nodes := make(map[astypes.ASN]*baseNode, g.NumNodes())
	for _, asn := range g.Nodes() {
		nodes[asn] = &baseNode{
			asn:        asn,
			neighbors:  g.Neighbors(asn),
			table:      rib.NewTable(),
			advertised: make(map[astypes.ASN]map[astypes.Prefix]bool),
		}
	}
	return nodes
}

// baselineConverge floods one origination through the map layout with
// the same decision process (rib.Table's) and per-hop path prepending
// the old engine performed, processing messages FIFO to convergence.
func baselineConverge(nodes map[astypes.ASN]*baseNode, origin astypes.ASN, prefix astypes.Prefix) int {
	o := nodes[origin]
	o.table.OriginateOwned(&rib.Route{Prefix: prefix, LocalPref: rib.DefaultLocalPref})
	var queue []baseMsg
	emit := func(nd *baseNode, best *rib.Route) {
		out := best.Clone()
		out.Path = out.Path.Prepend(nd.asn)
		for _, peer := range nd.neighbors {
			if out.Path.Contains(peer) {
				continue
			}
			adv := nd.advertised[peer]
			if adv == nil {
				adv = make(map[astypes.Prefix]bool)
				nd.advertised[peer] = adv
			}
			adv[prefix] = true
			queue = append(queue, baseMsg{to: peer, from: nd.asn, route: out})
		}
	}
	emit(o, o.table.Best(prefix))
	msgs := 0
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		msgs++
		nd := nodes[m.to]
		r := m.route.Clone()
		r.FromPeer = m.from
		if ch := nd.table.Update(r); ch.Changed {
			emit(nd, ch.New)
		}
	}
	return msgs
}

// BenchmarkSimScaleConverge1kBaseline is the map-layout counterpart of
// BenchmarkSimScaleConverge1k: same topology, same origination flood,
// per-node rib.Table storage. The state-bytes/node gap against the
// compact benchmark is the refactor's headline number.
func BenchmarkSimScaleConverge1kBaseline(b *testing.B) {
	const nodeCount = 1_000
	res, err := topology.GeneratePowerLaw(topology.DefaultPowerLawParams(nodeCount), 42)
	if err != nil {
		b.Fatal(err)
	}
	origin, _ := scaleScenario(res)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	nodes := baselineNetwork(res.Graph)
	baselineConverge(nodes, origin, victim)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	bytesPerNode := heapPerNode(before, after, nodeCount)
	runtime.KeepAlive(nodes)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := baselineNetwork(res.Graph)
		baselineConverge(fresh, origin, victim)
	}
	b.ReportMetric(bytesPerNode, "state-bytes/node")
	b.ReportMetric(float64(nodeCount)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
}
