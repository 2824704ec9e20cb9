package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/astypes"
	"repro/internal/experiment"
	"repro/internal/topology"
	"repro/internal/trace"
)

// runTrace is the traced-hijack study: one hijack on the 25-AS
// topology, replayed under normal BGP and full MOAS detection with a
// flight recorder attached. For each it writes the propagation timeline
// as /debug/trace serves it, the per-AS adoption outcome, and the
// forensic alarm bundles as /debug/alarms serves them. roaCoverage is
// the chance that ROAs cover the victim prefix (1 classes every alarm
// likely-hijack). All timestamps are virtual simulation time, so the
// same arguments produce byte-identical output.
func runTrace(w io.Writer, seed int64, forge bool, roaCoverage float64) error {
	set, err := topology.BuildPaperTopologies(seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Propagation trace: 25-AS topology, seed %d\n", seed)
	for i, m := range []struct {
		label string
		det   experiment.Detection
	}{
		{"normal BGP (detection off)", experiment.DetectionOff},
		{"full MOAS detection", experiment.DetectionFull},
	} {
		cfg, res, err := experiment.TraceHijack(experiment.RunConfig{
			Topology:          set.T25,
			Detection:         m.det,
			ForgeSupersetList: forge,
			ROACoverage:       roaCoverage,
		}, seed)
		if err != nil {
			return err
		}
		legit, attacker := cfg.Scenario.Origins[0], cfg.Scenario.Attackers[0]
		if i == 0 {
			fmt.Fprintf(w, "victim prefix %s, origin AS%d, attacker AS%d, forged superset list: %v\n",
				experiment.VictimPrefix, legit, attacker, forge)
		}
		rec := cfg.Recorder
		events := rec.Events()
		fmt.Fprintf(w, "\n== %s ==\n", m.label)
		fmt.Fprintf(w, "timeline (%d events, %d dropped):\n", len(events), rec.Dropped())
		if err := trace.WriteEvents(w, events); err != nil {
			return err
		}
		writeAdoption(w, set.T25.Graph.Nodes(), events, legit, attacker)
		fmt.Fprintf(w, "summary: %d/%d non-attacker ASes on the false route, %d alarms, %d messages, converged at %s\n",
			res.Census.AdoptedFalse, res.Census.NonAttackers, res.Alarms,
			res.Messages, time.Duration(res.ConvergeVirtual))
		bundles := rec.Alarms()
		fmt.Fprintf(w, "alarms (%d bundles):\n", len(bundles))
		if err := trace.WriteAlarms(w, bundles); err != nil {
			return err
		}
	}
	return nil
}

// writeAdoption derives each AS's final route for the victim prefix
// from its last rib event: the origin of the installed best route says
// whether the node ended on the valid route or the forged one.
func writeAdoption(w io.Writer, nodes []astypes.ASN, events []trace.Event, legit, attacker astypes.ASN) {
	last := make(map[astypes.ASN]trace.Event)
	rejected := make(map[astypes.ASN]int)
	for _, e := range events {
		switch e.Kind {
		case trace.KindRIB:
			last[e.Node] = e
		case trace.KindValidate:
			if e.Detail == trace.DetailRejected {
				rejected[e.Node]++
			}
		}
	}
	fmt.Fprintf(w, "adoption (%d nodes):\n", len(nodes))
	for _, asn := range nodes {
		var state string
		e, ok := last[asn]
		switch {
		case asn == attacker:
			state = "attacker"
		case !ok, e.Detail == trace.DetailWithdrawn:
			state = "no route"
		case e.Origin == attacker:
			state = "FALSE route via the attacker"
		case e.Origin == legit:
			state = "valid route"
		default:
			state = fmt.Sprintf("route via AS%d", e.Origin)
		}
		if n := rejected[asn]; n > 0 {
			suffix := ""
			if n != 1 {
				suffix = "s"
			}
			state += fmt.Sprintf(" (rejected %d forged announcement%s)", n, suffix)
		}
		fmt.Fprintf(w, "  AS%-5d %s\n", uint32(asn), state)
	}
}
