package repro_test

import (
	"fmt"

	"repro"
	"repro/internal/routegen"
	"repro/internal/wire"
)

// The complete detection loop on a five-AS internetwork: a hijack is
// announced, every capable AS compares MOAS lists, the conflict is
// resolved against the MOASRR record, and the false route is contained.
func Example() {
	g := repro.NewGraph()
	g.AddEdge(4, 10)
	g.AddEdge(4, 20)
	g.AddEdge(10, 30)
	g.AddEdge(20, 30)
	g.AddEdge(30, 52)

	prefix := repro.MustPrefix(0x83b30000, 16) // 131.179.0.0/16
	valid := repro.NewList(4)

	net, err := repro.NewSimNetwork(repro.SimConfig{
		Topology: g,
		Resolver: repro.ResolverFunc(func(p repro.Prefix) (repro.List, bool) {
			return valid, p == prefix
		}),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, asn := range net.Nodes() {
		if asn != 52 {
			if err := net.SetMode(asn, repro.SimModeDetect); err != nil {
				fmt.Println(err)
				return
			}
		}
	}
	net.Originate(4, prefix, repro.List{})
	net.OriginateInvalid(52, prefix, repro.List{})
	if err := net.Run(); err != nil {
		fmt.Println(err)
		return
	}
	c := net.TakeCensus(prefix, valid)
	fmt.Printf("hijacked %d/%d, alarms at %d ASes\n",
		c.AdoptedFalse, c.NonAttackers, c.AlarmedNodes)
	// Output:
	// hijacked 0/4, alarms at 3 ASes
}

// The MOASRR database (§4.4) answers "who may originate this prefix",
// including covering lookups for more-specific queries.
func ExampleMOASRRStore() {
	store := repro.NewMOASRRStore()
	store.Register(repro.MustPrefix(0x83b30000, 16), repro.NewList(4, 226))

	sub := repro.MustPrefix(0x83b34500, 24) // inside the /16
	list, ok := store.ValidOrigins(sub)
	fmt.Println(ok, list)
	ok4, _ := store.Verify(sub, 4)
	ok52, _ := store.Verify(sub, 52)
	fmt.Println(ok4, ok52)
	// Output:
	// true {4, 226}
	// true false
}

// The off-line monitor reproduces §4.2's quick-deployment path: no
// router modification, just table dumps from vantage points.
func ExampleMonitor() {
	prefix := repro.MustPrefix(0x83b30000, 16)
	mon := repro.NewMonitor()
	announce := func(path ...repro.ASN) *wire.Update {
		return &wire.Update{NLRI: []repro.Prefix{prefix}, Attrs: wire.PathAttrs{ASPath: repro.NewSeqPath(path...)}}
	}
	mon.ObserveUpdate("route-views", announce(701, 4))
	mon.ObserveUpdate("ripe-ris", announce(1239, 52))

	for _, c := range mon.MOASCases() {
		fmt.Println(c.Prefix, c.Origins)
	}
	fmt.Println("alarms:", len(mon.Alarms()))
	// Output:
	// 131.179.0.0/16 [4 52]
	// alarms: 1
}

// The §4.2 off-line pipeline over the synthetic RouteViews series around
// the April 2001 AS15412 fault: a MOASRR database seeded from a quiet
// day classifies each day's MOAS cases, and the two fault days stand out
// as invalid without touching a router.
func ExampleMonitor_incident() {
	gen, err := repro.NewDumpGenerator(repro.DefaultDumpConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	quiet, err := gen.DumpForDay(routegen.EventAS15412Day - 30)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Every origin set visible on the quiet day is authorized.
	origins := make(map[repro.Prefix][]repro.ASN)
	for _, e := range quiet.Entries {
		origins[e.Prefix] = append(origins[e.Prefix], e.Origin())
	}
	store := repro.NewMOASRRStore()
	for prefix, asns := range origins {
		store.Register(prefix, repro.NewList(asns...))
	}

	for day := routegen.EventAS15412Day - 2; day <= routegen.EventAS15412Day+5; day++ {
		d, err := gen.DumpForDay(day)
		if err != nil {
			fmt.Println(err)
			return
		}
		mon := repro.NewMonitor(repro.WithMonitorResolver(store))
		mon.ObserveDump("route-views", d)
		invalid := 0
		for _, c := range mon.MOASCases() {
			if c.Invalid {
				invalid++
			}
		}
		fmt.Printf("%s: %d invalid\n", d.Date.Format("2006-01-02"), invalid)
	}
	// Output:
	// 2001-04-04: 0 invalid
	// 2001-04-05: 0 invalid
	// 2001-04-06: 649 invalid
	// 2001-04-07: 0 invalid
	// 2001-04-08: 0 invalid
	// 2001-04-09: 0 invalid
	// 2001-04-10: 649 invalid
	// 2001-04-11: 0 invalid
}
