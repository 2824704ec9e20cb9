package simbgp

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/topology"
)

// powerLawNet builds a compact network over an n-AS preferential-
// attachment topology, returning it with the sample for node selection.
func powerLawNet(t testing.TB, n int, seed int64, valid core.List) (*Network, *topology.SampleResult) {
	t.Helper()
	res, err := topology.GeneratePowerLaw(topology.DefaultPowerLawParams(n), seed)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(Config{Topology: res.Graph, Resolver: resolverFor(valid)})
	if err != nil {
		t.Fatal(err)
	}
	return net, res
}

// scaleScenario picks a deterministic victim stub and a distant
// attacker for an internet-scale run: the victim originates with the
// implicit single-origin list, so no 2-octet ASN constraint applies.
func scaleScenario(res *topology.SampleResult) (origin, attacker astypes.ASN) {
	stubs := res.StubASes()
	origin = stubs[0]
	nbr := make(map[astypes.ASN]bool)
	for _, p := range res.Graph.Neighbors(origin) {
		nbr[p] = true
	}
	for _, s := range stubs[1:] {
		if s != origin && !nbr[s] {
			return origin, s
		}
	}
	panic("no eligible attacker")
}

// TestInternetScale70k is the tentpole acceptance test: a 70k-AS
// power-law internet must build, converge a valid announcement, and
// absorb one forged-origin hijack within a ~2 GiB live-heap budget.
// Skipped with -short (tens of seconds of work).
func TestInternetScale70k(t *testing.T) {
	if testing.Short() {
		t.Skip("70k-AS internet build; skipped with -short")
	}
	const nodes = 70_000
	origin := astypes.ASN(0)
	valid := core.List{}
	start := time.Now()
	net, res := powerLawNet(t, nodes, 42, valid)
	built := time.Since(start)
	origin, attacker := scaleScenario(res)
	valid = core.NewList(origin)
	if err := net.Reset(Config{Topology: res.Graph, Resolver: resolverFor(valid)}); err != nil {
		t.Fatal(err)
	}
	for _, asn := range net.Nodes() {
		if asn != attacker {
			if err := net.SetMode(asn, ModeDetect); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := net.Originate(origin, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}
	converged := time.Since(start) - built
	if err := net.OriginateInvalid(attacker, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := net.Run(); err != nil {
		t.Fatal(err)
	}

	c := net.TakeCensus(victim, valid)
	if c.NonAttackers != nodes-1 {
		t.Fatalf("census covers %d of %d non-attacker nodes", c.NonAttackers, nodes-1)
	}
	if kept := c.NonAttackers - c.AdoptedFalse - c.NoRoute; kept < nodes*9/10 {
		t.Errorf("only %d of %d nodes kept the valid route under full detection", kept, nodes)
	}
	if c.AlarmedNodes == 0 {
		t.Error("no alarms raised at 70k scale")
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	const budget = 2 << 30
	if ms.HeapAlloc > budget {
		t.Errorf("live heap %d bytes exceeds the 2 GiB budget", ms.HeapAlloc)
	}
	t.Logf("70k scale: build %v, valid convergence %v (%.0f nodes/s), %d messages, live heap %.1f MiB (%.1f KiB/node)",
		built.Round(time.Millisecond), converged.Round(time.Millisecond),
		nodes/converged.Seconds(), net.MessageCount(),
		float64(ms.HeapAlloc)/(1<<20), float64(ms.HeapAlloc)/float64(nodes)/1024)
}

// TestResetAllocsConstant10k guards the Reset scaling fix: rewinding a
// dirty 10k-AS network must allocate O(1) — in-place clears of the
// flat per-prefix arrays and per-node fields, never a fresh map or
// slice per node. Skipped with -short.
func TestResetAllocsConstant10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-AS reset soak; skipped with -short")
	}
	valid := core.NewList(1)
	net, res := powerLawNet(t, 10_000, 7, valid)
	cfg := Config{Topology: res.Graph, Resolver: resolverFor(valid)}
	origin, attacker := scaleScenario(res)
	dirty := func() {
		if err := net.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if err := net.Originate(origin, victim, core.List{}); err != nil {
			t.Fatal(err)
		}
		if err := net.OriginateInvalid(attacker, victim, core.List{}); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	dirty()
	allocs := testing.AllocsPerRun(5, func() {
		if err := net.Reset(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// The allowance covers the engine's constant-size resets; 10k nodes
	// would show up as thousands.
	if allocs > 64 {
		t.Errorf("Reset of a 10k-AS network allocates %.0f times, want O(1)", allocs)
	}

	// Same guard with state to rewind between measured Resets: interned
	// paths and registered prefixes persist, so even a dirty rewind stays
	// constant after the first scenario warmed the tables.
	dirty()
	allocs = testing.AllocsPerRun(5, func() {
		dirty()
	})
	if allocs > 256 {
		t.Errorf("dirty rewind+rerun of a 10k-AS network allocates %.0f times, want O(1)", allocs)
	}
}

// TestResetMatchesFreshAtScale10k extends the reset-vs-fresh
// equivalence pin to internet scale: a pooled network rewound from a
// different scenario must reproduce a fresh network's hijack outcome
// bit for bit. Skipped with -short.
func TestResetMatchesFreshAtScale10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-AS equivalence; skipped with -short")
	}
	const nodes = 10_000
	valid := core.NewList(1)
	fresh, res := powerLawNet(t, nodes, 11, valid)
	origin, attacker := scaleScenario(res)
	valid = core.NewList(origin)
	cfg := Config{Topology: res.Graph, Resolver: resolverFor(valid)}
	if err := fresh.Reset(cfg); err != nil {
		t.Fatal(err)
	}

	run := func(net *Network) (Census, Census, uint64) {
		for _, asn := range net.Nodes() {
			if asn != attacker {
				if err := net.SetMode(asn, ModeDetect); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := net.Originate(origin, victim, core.List{}); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if err := net.OriginateInvalid(attacker, victim, core.List{}); err != nil {
			t.Fatal(err)
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
		return net.TakeCensus(victim, valid), net.TakeForwardingCensus(victim, valid), net.MessageCount()
	}
	wantRIB, wantFwd, wantMsgs := run(fresh)

	reused, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the reused network with an unrelated scenario first: a
	// stripping neighbor of the origin, an attack that raises alarms,
	// and a withdrawal.
	stubs := res.StubASes()
	other, forger := stubs[2], stubs[3]
	for _, asn := range reused.Nodes() {
		if err := reused.SetMode(asn, ModeDetect); err != nil {
			t.Fatal(err)
		}
	}
	if err := reused.SetStripMOAS(res.Graph.Neighbors(origin)[0], true); err != nil {
		t.Fatal(err)
	}
	if err := reused.Originate(other, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := reused.OriginateInvalid(forger, victim, core.List{}); err != nil {
		t.Fatal(err)
	}
	if err := reused.Run(); err != nil {
		t.Fatal(err)
	}
	if err := reused.Withdraw(other, victim); err != nil {
		t.Fatal(err)
	}
	if err := reused.Run(); err != nil {
		t.Fatal(err)
	}
	if c := reused.TakeCensus(victim, valid); c.AlarmedNodes == 0 {
		t.Fatal("dirtying scenario raised no alarm")
	}
	if err := reused.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	gotRIB, gotFwd, gotMsgs := run(reused)
	if gotRIB != wantRIB || gotFwd != wantFwd || gotMsgs != wantMsgs {
		t.Errorf("reset run diverged at 10k:\n rib  %+v vs %+v\n fwd  %+v vs %+v\n msgs %d vs %d",
			gotRIB, wantRIB, gotFwd, wantFwd, gotMsgs, wantMsgs)
	}
}

// TestInternedPathIsolation is the aliasing property test for the
// intern tables: routes handed out by Best are private copies, so no
// amount of mutation through one node's materialized route may change
// what any other node (or a re-query of the same node) observes.
func TestInternedPathIsolation(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		valid := core.NewList(1, 9)
		net, res := powerLawNet(t, 150, seed, valid)
		stubs := res.StubASes()
		o1, o2 := stubs[0], stubs[1]
		valid = core.NewList(o1, o2)
		if err := net.Reset(Config{Topology: res.Graph, Resolver: resolverFor(valid)}); err != nil {
			t.Fatal(err)
		}
		for _, asn := range net.Nodes() {
			if err := net.SetMode(asn, ModeDetect); err != nil {
				t.Fatal(err)
			}
		}
		// A multi-origin announcement with an explicit MOAS list makes
		// every propagated route carry shared interned communities.
		for _, o := range []astypes.ASN{o1, o2} {
			if err := net.Originate(o, victim, valid); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}

		render := func(asn astypes.ASN) string {
			best := net.Node(asn).Best(victim)
			if best == nil {
				return "<none>"
			}
			return fmt.Sprintf("%v|%v|%v", best.Path, best.Communities, best.FromPeer)
		}
		want := make(map[astypes.ASN]string, len(net.Nodes()))
		for _, asn := range net.Nodes() {
			want[asn] = render(asn)
		}
		// Vandalize every materialized route in place: if Best leaked a
		// reference into the shared tables, some later render changes.
		for _, asn := range net.Nodes() {
			best := net.Node(asn).Best(victim)
			if best == nil {
				continue
			}
			for si := range best.Path.Segments {
				for ai := range best.Path.Segments[si].ASNs {
					best.Path.Segments[si].ASNs[ai] = 0xdead
				}
			}
			for ci := range best.Communities {
				best.Communities[ci] = astypes.Community(0xdeadbeef)
			}
		}
		for _, asn := range net.Nodes() {
			if got := render(asn); got != want[asn] {
				t.Fatalf("seed %d: AS %s route changed after foreign mutation:\n got  %s\n want %s",
					seed, asn, got, want[asn])
			}
		}
	}
}
