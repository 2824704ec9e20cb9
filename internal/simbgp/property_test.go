package simbgp

import (
	"math/rand"
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/topology"
)

// randomConnectedGraph builds a random connected graph: a random
// spanning tree plus random chords.
func randomConnectedGraph(rng *rand.Rand, n int) *topology.Graph {
	g := topology.NewGraph()
	nodes := make([]astypes.ASN, n)
	for i := range nodes {
		nodes[i] = astypes.ASN(i + 1)
		g.AddNode(nodes[i])
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(nodes[perm[i]], nodes[perm[rng.Intn(i)]])
	}
	extra := rng.Intn(n)
	for i := 0; i < extra; i++ {
		a, b := nodes[rng.Intn(n)], nodes[rng.Intn(n)]
		g.AddEdge(a, b)
	}
	return g
}

// TestConvergenceToShortestPaths: on random connected graphs with a
// single origin and no attackers, every node converges to a route whose
// AS-path length equals its BFS distance to the origin — the
// path-vector protocol finds shortest paths at quiescence.
func TestConvergenceToShortestPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(30) + 5
		g := randomConnectedGraph(rng, n)
		origin := astypes.ASN(rng.Intn(n) + 1)

		net, err := NewNetwork(Config{Topology: g})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Originate(origin, victim, core.List{}); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dist := g.ShortestPathLens(origin)
		for _, asn := range net.Nodes() {
			best := net.Node(asn).Best(victim)
			if asn == origin {
				if best == nil || best.FromPeer != astypes.ASNNone {
					t.Fatalf("trial %d: origin lost its own route", trial)
				}
				continue
			}
			if best == nil {
				t.Fatalf("trial %d: AS %s unreachable in a connected graph", trial, asn)
			}
			if got, want := best.Path.Hops(), dist[asn]; got != want {
				t.Fatalf("trial %d: AS %s path hops %d, BFS distance %d (path %v)",
					trial, asn, got, want, best.Path)
			}
			if o := best.OriginAS(); o != origin {
				t.Fatalf("trial %d: AS %s origin %s", trial, asn, o)
			}
			if best.Path.Contains(asn) {
				t.Fatalf("trial %d: AS %s has a looped path %v", trial, asn, best.Path)
			}
		}
	}
}

// TestDetectionConservation: on random graphs with random attackers and
// full detection, census categories partition the non-attacker
// population, and every adoption happens at a node that never saw the
// valid route (alarm-free adopters only).
func TestDetectionConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(25) + 8
		g := randomConnectedGraph(rng, n)
		origin := astypes.ASN(rng.Intn(n) + 1)
		valid := core.NewList(origin)
		var attackers []astypes.ASN
		for len(attackers) < n/5+1 {
			a := astypes.ASN(rng.Intn(n) + 1)
			if a != origin {
				attackers = astypes.DedupASNs(append(attackers, a))
			}
		}
		net, err := NewNetwork(Config{
			Topology: g,
			Resolver: resolverFor(valid),
		})
		if err != nil {
			t.Fatal(err)
		}
		attackerSet := make(map[astypes.ASN]bool)
		for _, a := range attackers {
			attackerSet[a] = true
		}
		for _, asn := range net.Nodes() {
			if !attackerSet[asn] {
				if err := net.SetMode(asn, ModeDetect); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := net.Originate(origin, victim, core.List{}); err != nil {
			t.Fatal(err)
		}
		for _, a := range attackers {
			if err := net.OriginateInvalid(a, victim, core.List{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
		c := net.TakeCensus(victim, valid)
		if c.NonAttackers != n-len(attackers) {
			t.Fatalf("trial %d: NonAttackers = %d, want %d", trial, c.NonAttackers, n-len(attackers))
		}
		if c.AdoptedFalse < 0 || c.AdoptedFalse+c.NoRoute > c.NonAttackers {
			t.Fatalf("trial %d: census does not partition: %+v", trial, c)
		}
		// A full-detection node that raised an alarm has, by definition,
		// resolved the conflict: it must not end on the false route.
		for _, asn := range net.Nodes() {
			node := net.Node(asn)
			if node.Attacker() || node.AlarmCount() == 0 {
				continue
			}
			if node.AdoptsFalse(victim, valid) {
				t.Fatalf("trial %d: AS %s alarmed yet adopted the false route", trial, asn)
			}
		}
	}
}

// TestWithdrawalSymmetry: originate then withdraw leaves every RIB
// empty, regardless of topology.
func TestWithdrawalSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(20) + 4
		g := randomConnectedGraph(rng, n)
		origin := astypes.ASN(rng.Intn(n) + 1)
		net, err := NewNetwork(Config{Topology: g})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Originate(origin, victim, core.List{}); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if err := net.Withdraw(origin, victim); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
		for _, asn := range net.Nodes() {
			if net.Node(asn).Best(victim) != nil {
				t.Fatalf("trial %d: AS %s kept a route after withdrawal", trial, asn)
			}
		}
	}
}
