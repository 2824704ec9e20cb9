package simbgp

import (
	"slices"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/trace"
)

func TestMRAIConvergesToSameRoutes(t *testing.T) {
	build := func(mrai time.Duration) *Network {
		g := lineTopology(1, 2, 3, 4)
		g.AddEdge(1, 4)
		g.AddEdge(2, 4)
		n, err := NewNetwork(Config{Topology: g, MRAI: mrai})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Originate(1, victim, core.List{}); err != nil {
			t.Fatal(err)
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	plain := build(0)
	limited := build(2 * time.Second)
	for _, asn := range plain.Nodes() {
		a, b := plain.Node(asn).Best(victim), limited.Node(asn).Best(victim)
		if (a == nil) != (b == nil) {
			t.Fatalf("AS %s reachability differs under MRAI", asn)
		}
		if a != nil && a.Path.Hops() != b.Path.Hops() {
			t.Errorf("AS %s path length differs: %d vs %d", asn, a.Path.Hops(), b.Path.Hops())
		}
	}
}

func TestMRAIBatchesChurn(t *testing.T) {
	// The origin flaps the prefix several times in rapid succession; a
	// rate-limited network delivers fewer updates than a flooding one.
	run := func(mrai time.Duration) uint64 {
		g := lineTopology(1, 2, 3, 4, 5)
		n, err := NewNetwork(Config{Topology: g, MRAI: mrai})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			list := core.NewList(1)
			if i%2 == 1 {
				list = core.NewList(1, 7) // alternate attribute change
			}
			if err := n.Originate(1, victim, list); err != nil {
				t.Fatal(err)
			}
			if err := n.Engine().RunUntil(n.Engine().Now() + 5*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
		return n.MessageCount()
	}
	flood := run(0)
	limited := run(time.Second)
	if limited >= flood {
		t.Errorf("MRAI did not reduce churn messages: %d vs %d", limited, flood)
	}
	t.Logf("messages: flood=%d mrai=%d", flood, limited)
}

func TestMRAIWithdrawalsImmediate(t *testing.T) {
	g := lineTopology(1, 2, 3)
	n, err := NewNetwork(Config{Topology: g, MRAI: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Node(3).Best(victim) == nil {
		t.Fatal("no route at AS 3")
	}
	if err := n.Withdraw(1, victim); err != nil {
		t.Fatal(err)
	}
	// Withdrawals bypass MRAI: quiescence must not wait 10 virtual
	// seconds per hop.
	before := n.Engine().Now()
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Node(3).Best(victim) != nil {
		t.Error("withdrawal did not reach AS 3")
	}
	if elapsed := n.Engine().Now() - before; elapsed > time.Second {
		t.Errorf("withdrawal took %v of virtual time (MRAI leak)", elapsed)
	}
}

func TestMRAIFlushAfterLinkFailure(t *testing.T) {
	// A pending MRAI batch for a peer whose link fails must be dropped,
	// not sent into the void.
	g := topology.NewGraph()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	n, err := NewNetwork(Config{Topology: g, MRAI: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Originate(1, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.FailLink(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Node(3).Best(victim) == nil {
		t.Error("AS 3 lost the route despite the direct link to AS 1")
	}
}

// TestMRAIFlushIsReproducible: a flush re-advertises its deferred batch
// in a fixed order, so identical runs record identical event sequences
// and span ordinals.
func TestMRAIFlushIsReproducible(t *testing.T) {
	type step struct {
		kind   trace.Kind
		node   astypes.ASN
		span   uint64
		prefix astypes.Prefix
	}
	run := func() []step {
		n, err := NewNetwork(Config{Topology: lineTopology(1, 2, 3, 4), MRAI: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(1<<14, trace.WithoutWallClock())
		n.AttachRecorder(rec)
		for round := 0; round < 3; round++ {
			list := core.NewList(1)
			if round%2 == 1 {
				list = core.NewList(1, 7)
			}
			for i := 0; i < 16; i++ {
				if err := n.Originate(1, astypes.MustPrefix(0x0a000000|uint32(i)<<8, 24), list); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Engine().RunUntil(n.Engine().Now() + 5*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
		if rec.Dropped() != 0 {
			t.Fatalf("ring too small: %d events dropped", rec.Dropped())
		}
		var out []step
		for _, e := range rec.Events() {
			out = append(out, step{e.Kind, e.Node, e.Span, e.Prefix})
		}
		return out
	}
	want := run()
	for i := 1; i <= 10; i++ {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("repeat %d recorded a different event sequence (%d vs %d events)", i, len(got), len(want))
		}
	}
}
