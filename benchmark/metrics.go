package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricDef declares one reported number. BENCHMARK.json lists the
// same names, units, directions and bounds; the test keeps the two in
// step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"wire_churn", "benign full-table churn over TCP with rare forged origins: decode, session, checker fast path, RIB replace, export and instrumentation dominate; the alarm path is under 5% of CPU"},
	{"wire_storm", "mass false origination over the same sessions: conflict path, MOASRR resolve, ROV classify, alarm bundle and purge under the speaker lock dominate; decode and RIB replace are negligible"},
	{"feed_replay", "MRT archive and RIS-Live NDJSON replay into monitor and collector, bypassing wire, session and speaker; the two ingest paths must raise the same alarms"},
	{"sim_sweep", "the paper's Figure 9-11 sweeps and a 10k-AS hijack set on the simulator; touches none of the live path, so it must not move for wire, RIB or instrumentation changes"},
}

// The end-to-end metrics are the same six on every workload (the driver
// wants every one from every workload); what each measures on each
// workload is the table in README.md (primary_per_s is updates/s on
// wire_churn, alarms/s on wire_storm, MRT entries/s on feed_replay,
// simulated deliveries/s on sim_sweep, …).
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"primary_per_s", "1/s", "higher", 0.25},
	{"secondary_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"heap_mib", "MiB", "lower", 0.05},
	{"latency_p50_us", "us", "lower", 0.25},
}

// cpuSharePkgs are the buckets the traced run's CPU profile is folded
// into, by the package of each sample's leaf function.
var cpuSharePkgs = []string{
	"wire", "session", "speaker", "core", "rib", "trace", "obs", "telemetry",
	"dnsval", "rpki", "astypes", "ptrie", "mrt", "rislive", "monitor", "collector",
	"sim", "simbgp", "experiment", "topology",
	"runtime.gc", "runtime.malloc", "runtime.map", "runtime.sched", "runtime.other", "syscall", "benchmark", "other",
}

var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
		}
		return out
	}
	higher := func(unit string, names ...string) []metricDef {
		out := lower(unit, names...)
		for i := range out {
			out[i].Better = "higher"
		}
		return out
	}
	var d []metricDef
	add := func(ms []metricDef) { d = append(d, ms...) }
	add(lower("ns", "wire.decode_ns", "wire.read_msg_ns", "wire.encode_ns"))
	add(lower("B", "wire.bytes_per_update"))
	add(lower("ns", "session.roundtrip_ns"))
	add(higher("count", "session.msgs_in"))
	add(lower("count", "session.teardowns"))
	add(higher("count", "speaker.updates_in", "speaker.routes_accepted", "speaker.routes_rejected",
		"speaker.alarms", "speaker.updates_out"))
	add(lower("%", "speaker.echo_share"))
	add(lower("ns", "core.check_ns", "core.check_conflict_ns"))
	add(higher("count", "core.alarms"))
	add(lower("ns", "dnsval.resolve_ns", "rpki.validate_ns", "rpki.classify_ns"))
	add(lower("ns", "rib.insert_ns", "rib.replace_ns", "rib.withdraw_ns"))
	add(lower("ms", "rib.routes_from_ms"))
	add(lower("count", "rib.allocs_per_update"))
	add(lower("B", "rib.bytes_per_prefix"))
	add(lower("ns", "trace.record_ns"))
	add(lower("us", "trace.record_alarm_us"))
	add(lower("count", "trace.ring_dropped"))
	add(lower("ns", "obs.stamp_lifecycle_ns", "telemetry.counter_inc_ns"))
	add(lower("ms", "telemetry.scrape_ms"))
	add(lower("ns", "mrt.next_ns"))
	add(higher("count", "mrt.records"))
	add(lower("count", "mrt.malformed"))
	add(higher("MiB/s", "mrt.mib_per_s"))
	add(lower("ns", "rislive.decode_ns"))
	add(higher("count", "rislive.delivered"))
	add(lower("count", "rislive.dropped", "rislive.parse_errors"))
	add(lower("ns", "monitor.observe_ns"))
	add(higher("count", "monitor.alarms"))
	add(lower("ns", "collector.inject_ns"))
	add(lower("ms", "collector.snapshot_ms"))
	add(lower("ns", "sim.event_ns"))
	add(lower("ms", "simbgp.converge_10k_ms", "simbgp.reset_ms"))
	add(lower("count", "simbgp.messages_per_run"))
	add(lower("B", "simbgp.state_bytes_per_node"))
	add(lower("s", "experiment.fig9_s", "experiment.fig10_s", "experiment.fig11_s"))
	add(lower("ms", "topology.powerlaw_10k_ms"))
	add(lower("count", "proc.allocs_per_op"))
	add(lower("B", "proc.bytes_per_op"))
	add(lower("%", "proc.gc_cpu_pct"))
	add(lower("us", "proc.gc_pause_max_us"))
	add(lower("MiB", "proc.heap_live_mib"))
	add(lower("count", "proc.goroutines"))
	add(lower("ns", "budget.layer_sum_ns", "budget.e2e_ns", "budget.unexplained_ns"))
	add(lower("%", "trace_overhead_pct"))
	// The tail of the workload's end-to-end latency. It lives here, with
	// no bound, because no phase length inside the time cap holds its
	// run-to-run spread under 25% on a shared 2-vCPU machine.
	add(lower("us", "gen.latency_p99_us"))
	// The generator's own view of the wire workloads' open-loop phases,
	// and the program's view of the same detection latency.
	add(lower("us", "gen.detect_p50_us", "gen.propagate_p50_us", "gen.propagate_p99_us", "gen.late_p99_us"))
	add(lower("ms", "gen.write_block_ms"))
	add(lower("us", "obs.detect_p50_us", "obs.detect_gap_us"))
	for _, p := range cpuSharePkgs {
		add(lower("%", "cpu_share."+p))
	}
	return d
}

// ownedLayers lists, by name prefix, the per-layer metrics each
// workload's traced run measures: a layer is priced once, on the
// workload that owns its corpus. The driver wants every declared name
// from every traced run, so the rest are reported as 0 and printed as
// n/a. Every workload also owns ownedByAll.
var ownedLayers = map[string][]string{
	"wire_churn": {"wire.", "session.", "speaker.", "core.", "dnsval.", "rpki.", "rib.", "trace.", "obs.", "telemetry.", "gen."},
	"wire_storm": {"wire.", "session.", "speaker.", "core.", "dnsval.", "rpki.", "rib.", "trace.", "obs.stamp_", "telemetry.counter_",
		"gen.latency_", "gen.propagate_", "gen.late_", "gen.write_block_"},
	"feed_replay": {"mrt.", "rislive.", "monitor.", "collector.", "core.alarms", "gen.latency_"},
	"sim_sweep":   {"sim.", "simbgp.", "experiment.", "topology.", "gen.latency_"},
}

var ownedByAll = []string{"proc.", "budget.", "cpu_share.", "trace_overhead_pct"}

func owns(workload, metric string) bool {
	for _, p := range append(ownedLayers[workload], ownedByAll...) {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

func defsByName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}

var (
	endToEndByName = defsByName(endToEndDefs)
	perLayerByName = defsByName(perLayerDefs)
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: either the untraced run carrying
// every end-to-end metric, or the traced run carrying every per-layer
// metric.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// NA names the per-layer metrics of layers this workload does not
	// own; they are in Metrics as 0 because the driver wants every name.
	NA map[string]bool `json:"na,omitempty"`
	// Notes carries sample counts behind percentiles and rates, output
	// hashes and similar context, one line each.
	Notes []string `json:"notes,omitempty"`
	// Hashes are output digests that must repeat exactly across runs of
	// one seed (the simulator's CSV).
	Hashes map[string]string `json:"hashes,omitempty"`
	// Failures describes each failed oracle check.
	Failures []string `json:"failures,omitempty"`
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{
		Workload: workload, Seed: seed, Traced: traced, Correct: true,
		Metrics: make(map[string]metricValue),
	}
}

// set records a declared metric; an undeclared or repeated name is a
// bug in the benchmark, not a runtime condition.
func (r *result) set(name string, v float64) {
	defs := endToEndByName
	if r.Traced {
		defs = perLayerByName
	}
	d, ok := defs[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q not declared for traced=%v", name, r.Traced))
	}
	if _, dup := r.Metrics[name]; dup {
		panic(fmt.Sprintf("benchmark: metric %q set twice", name))
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records n failed operations with the oracle check they failed.
func (r *result) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf("%d failed: ", n)+fmt.Sprintf(format, args...))
}

// fillNotApplicable reports as 0, marked n/a, the per-layer metrics of
// layers the workload does not own, and returns the declared metrics
// the run should have produced itself and did not.
func (r *result) fillNotApplicable() (missing []string) {
	defs := endToEndDefs
	if r.Traced {
		defs = perLayerDefs
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; ok {
			continue
		}
		if r.Traced && !owns(r.Workload, d.Name) {
			if r.NA == nil {
				r.NA = make(map[string]bool)
			}
			r.NA[d.Name] = true
			r.Metrics[d.Name] = metricValue{Value: 0, Unit: d.Unit}
			continue
		}
		missing = append(missing, d.Name)
	}
	return missing
}

// print writes the human-readable block: every metric by name with its
// unit (n/a for a layer the workload does not own), then notes and
// failures.
func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d %s: attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.Correct)
	for _, n := range sortedKeys(r.Metrics) {
		if r.NA[n] {
			fmt.Fprintf(w, "  %-32s %16s\n", n, "n/a")
			continue
		}
		fmt.Fprintf(w, "  %-32s %16.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "  FAIL:", f)
	}
}

// contractLine is the last line of standard output the driver reads.
func (r *result) contractLine() string {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain floats and strings cannot fail to marshal
	}
	return string(b)
}
