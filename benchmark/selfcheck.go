package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// environment is the fixed conditions a result was measured under.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Link       string `json:"link"`
}

// currentEnvironment reads the commit from BENCH_COMMIT, which run.sh
// sets from git where the checkout is a repository: go run stamps no
// VCS revision into the binary.
func currentEnvironment() environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Link: "loopback",
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		env.Commit = c
	}
	return env
}

func printEnvironment() {
	e := currentEnvironment()
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d go=%s commit=%s link=%s\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Link)
}

// savedResults is the file -o writes and -compare reads.
type savedResults struct {
	Env     environment `json:"environment"`
	Results []*result   `json:"results"`
}

// saveResults appends rs to the results already in path (if any), so
// repeated runs with the same -o accumulate the sample -compare needs
// to judge spread. A file measured under another environment (commit,
// Go version, cores) is refused: one file is one side of a comparison.
func saveResults(path string, rs []*result) error {
	doc := savedResults{Env: currentEnvironment()}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &doc); err != nil {
			return fmt.Errorf("%s exists but is not a results file: %w", path, err)
		}
		if doc.Env != currentEnvironment() {
			return fmt.Errorf("%s was measured under %+v, this run under %+v: not appending", path, doc.Env, currentEnvironment())
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	doc.Results = append(doc.Results, rs...)
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// worsening is how much worse b is than a as a share of a, signed so
// that positive is always worse whatever the metric's direction.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	rel := (b - a) / a
	if d.Better == "higher" {
		rel = -rel
	}
	return rel
}

// runInFreshProcess runs one workload the way the driver does, in a
// process of its own: a second run in the same process would inherit
// the first one's heap and the simulator's per-topology pools.
func runInFreshProcess(workload string, seed int64, seconds int, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join("out", "run-"+workload+".json")
	os.Remove(path) // -o appends; start from nothing
	defer os.Remove(path)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace, "-o", path)
	cmd.Stderr = os.Stderr
	if out, err := cmd.Output(); err != nil {
		os.Stdout.Write(out)
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc savedResults
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.Results) != 1 {
		return nil, fmt.Errorf("%s: unreadable result file: %v", workload, err)
	}
	return doc.Results[0], nil
}

// selfcheckRounds is how many runs each side of the self-check is the
// median of. The two sides' runs alternate, so a host that slows down
// for a minute slows both sides and not one.
const selfcheckRounds = 3

// runSelfcheck runs every workload as two alternating sets of runs on
// the same build and holds each end-to-end metric's two medians against
// its bound.
func runSelfcheck(seed int64, seconds int, out string) error {
	printEnvironment()
	exceeded := 0
	var all []*result
	for _, w := range workloadDefs {
		var sides [2][]*result
		for k := 0; k < 2*selfcheckRounds; k++ {
			r, err := runInFreshProcess(w.Name, seed, seconds, false)
			if err != nil {
				return err
			}
			if !r.Correct {
				r.print(os.Stdout)
				return fmt.Errorf("%s: %d of %d operations failed", w.Name, r.Failed, r.Attempted)
			}
			sides[k%2] = append(sides[k%2], r)
			all = append(all, r)
		}
		fmt.Printf("== selfcheck %s seed=%d: medians of two alternating sets of %d runs\n", w.Name, seed, selfcheckRounds)
		for _, d := range endToEndDefs {
			var med [2]float64
			for side, rs := range sides {
				vs := make([]float64, len(rs))
				for i, r := range rs {
					vs[i] = r.Metrics[d.Name].Value
				}
				med[side] = median(vs)
			}
			rel := worsening(d, med[0], med[1])
			verdict := "ok"
			if rel > d.Bound || -rel > d.Bound {
				verdict = "exceeds bound"
				exceeded++
			}
			fmt.Printf("  %-18s %16.4f %16.4f %-6s diff %+7.2f%% bound %4.0f%%  %s\n",
				d.Name, med[0], med[1], d.Unit, 100*rel, 100*d.Bound, verdict)
		}
		first := sides[0][0].Hashes
		for _, name := range sortedKeys(first) {
			verdict := "equal"
			for _, r := range append(sides[0][1:], sides[1]...) {
				if r.Hashes[name] != first[name] {
					verdict = "DIFFER"
					exceeded++
					break
				}
			}
			fmt.Printf("  %-18s %s %s across all %d runs\n", name, first[name][:16], verdict, 2*selfcheckRounds)
		}
	}
	if out != "" {
		if err := saveResults(out, all); err != nil {
			return err
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d readings differ by more than their bound", exceeded)
	}
	return nil
}

// runCompare judges file b against file a, per workload and end-to-end
// metric: unchanged, regressed, or unresolved when either side's own
// run-to-run spread (interquartile range over median) is wider than the
// bound. A side with fewer than four runs has no measurable spread and
// is judged on its median alone.
func runCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare needs two result files: benchmark -compare a.json b.json")
	}
	var docs [2]savedResults
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &docs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	type key struct{ workload, metric string }
	var samples [2]map[key][]float64
	for i := range docs {
		samples[i] = make(map[key][]float64)
		for _, r := range docs[i].Results {
			if r.Traced || !r.Correct {
				continue
			}
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				samples[i][k] = append(samples[i][k], v.Value)
			}
		}
	}
	regressed := 0
	for _, w := range workloadDefs {
		fmt.Printf("== compare %s\n", w.Name)
		for _, d := range endToEndDefs {
			k := key{w.Name, d.Name}
			a, b := samples[0][k], samples[1][k]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("  %-18s missing on one side\n", d.Name)
				continue
			}
			rel := worsening(d, median(a), median(b))
			sa, sb := spread(a), spread(b)
			verdict := judge(d, rel, sa, sb)
			if verdict == "regressed" {
				regressed++
			}
			fmt.Printf("  %-18s a %14.4f (n=%d, spread %4.1f%%)  b %14.4f (n=%d, spread %4.1f%%)  %-6s worse by %+7.2f%% bound %4.0f%%  %s\n",
				d.Name, median(a), len(a), 100*sa, median(b), len(b), 100*sb, d.Unit, 100*rel, 100*d.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}

// spread is a sample's interquartile range as a share of its median; 0
// when there are too few runs to have one.
func spread(vs []float64) float64 {
	if len(vs) < 4 || median(vs) == 0 {
		return 0
	}
	return (quantile(vs, 0.75) - quantile(vs, 0.25)) / median(vs)
}

// judge turns a worsening and the two sides' spreads into a verdict.
func judge(d metricDef, rel, spreadA, spreadB float64) string {
	switch {
	case spreadA > d.Bound || spreadB > d.Bound:
		return "unresolved"
	case rel > d.Bound:
		return "regressed"
	}
	return "unchanged"
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
