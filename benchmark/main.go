// Command benchmark is the repository's end-to-end benchmark: it
// generates every input from -seed, boots the system under test
// in-process from its public constructors, drives it over loopback TCP
// and in-memory archives, checks the outputs against a reference the
// generator computed, and prints every metric by name with its unit.
// See README.md for the workloads, metrics and how to read the output.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 15

// sizes gathers the per-workload scale knobs; the test swaps in toy
// values, the command always runs full size.
type sizes struct {
	wire wireSizes
	feed feedSizes
	sim  simSizes
}

var fullSizes = sizes{wire: fullWire, feed: fullFeed, sim: fullSim}
var toySizes = sizes{wire: toyWire, feed: toyFeed, sim: toySim}

// runWorkload runs one workload once, untraced (end-to-end metrics) or
// traced (per-layer metrics).
func runWorkload(name string, seed int64, seconds int, traced bool, sz sizes) (*result, error) {
	var (
		r   *result
		err error
	)
	switch name {
	case "wire_churn":
		r, err = runWireChurn(seed, seconds, traced, sz)
	case "wire_storm":
		r, err = runWireStorm(seed, seconds, traced, sz)
	case "feed_replay":
		r, err = runFeedReplay(seed, seconds, traced, sz)
	case "sim_sweep":
		r, err = runSimSweep(seed, seconds, traced, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	if miss := r.fillNotApplicable(); r.Correct && len(miss) > 0 {
		return nil, fmt.Errorf("%s: metrics not produced: %s", name, strings.Join(miss, ", "))
	}
	return r, nil
}

func workloadNames() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.Name
	}
	return out
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Int("seconds", runSeconds, "seconds one run measures")
		traced    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics (-workload all runs both)")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare the two sets against the bounds")
		compare   = flag.Bool("compare", false, "compare two result files saved with -o: benchmark -compare a.json b.json")
		out       = flag.String("o", "", "also append the results as JSON to this file")
	)
	flag.Parse()
	// Fixed conditions: two cores' worth of scheduler whatever the box has.
	runtime.GOMAXPROCS(2)
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		os.Exit(2)
	}
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds, *out)
	case *workload == "all":
		err = runAll(*seed, *seconds, *out)
	default:
		err = runOne(*workload, *seed, *seconds, *traced != 0, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's entry: one workload, one mode, the contract's
// JSON object as the last line of standard output.
func runOne(name string, seed int64, seconds int, traced bool, out string) error {
	r, err := runWorkload(name, seed, seconds, traced, fullSizes)
	if err != nil {
		return err
	}
	printEnvironment()
	r.print(os.Stdout)
	if out != "" {
		if err := saveResults(out, []*result{r}); err != nil {
			return err
		}
	}
	fmt.Println(r.contractLine())
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, r.Failed, r.Attempted)
	}
	return nil
}

// runAll runs every workload untraced and then traced, each run in a
// process of its own as the driver runs them, and prints them all.
func runAll(seed int64, seconds int, out string) error {
	printEnvironment()
	var all []*result
	failed := 0
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			r, err := runInFreshProcess(w.Name, seed, seconds, traced)
			if err != nil {
				return err
			}
			r.print(os.Stdout)
			all = append(all, r)
			if !r.Correct {
				failed++
			}
		}
	}
	if out != "" {
		if err := saveResults(out, all); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed an oracle check", failed)
	}
	return nil
}
