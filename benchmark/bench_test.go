package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/wire"
)

// wireCorpusDigest hashes everything a wire workload would send for a
// seed: the cold table, both churn streams and the storm stream.
func wireCorpusDigest(t *testing.T, seed int64) [32]byte {
	t.Helper()
	c := newWireCorpus(seed, toyWire.prefixes)
	h := sha256.New()
	var sc updateScratch
	emit := func(u *wire.Update) {
		b, err := wire.Encode(u)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	for gi := range c.groups {
		g := &c.groups[gi]
		ps := c.prefixes[gi*groupSize : (gi+1)*groupSize]
		emit(c.announce(&sc, g, 0, ps...))
		if g.dual {
			emit(c.announceSecondary(&sc, g, ps...))
		}
	}
	for home := uint8(0); home < 2; home++ {
		st := c.churnStream(seed, home, pacedMix)
		for i := 0; i < 2000; i++ {
			op := st.next()
			h.Write([]byte{byte(op.kind), byte(op.prefix), byte(op.prefix >> 8), byte(op.forger), byte(op.forger >> 8)})
		}
	}
	storm := &stormStream{c: c}
	for op, ok := storm.next(); ok; op, ok = storm.next() {
		emit(c.forged(&sc, 1, op.forger, c.prefixes[op.prefix]))
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	if wireCorpusDigest(t, 7) != wireCorpusDigest(t, 7) {
		t.Error("wire corpus differs between two generations from one seed")
	}
	if wireCorpusDigest(t, 7) == wireCorpusDigest(t, 8) {
		t.Error("wire corpus identical for two seeds")
	}
	a, err := newFeedCorpus(7, toyFeed)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newFeedCorpus(7, toyFeed)
	c, _ := newFeedCorpus(8, toyFeed)
	if !bytes.Equal(a.archive, b.archive) || !bytes.Equal(a.ndjson, b.ndjson) || !reflect.DeepEqual(a.alarms, b.alarms) {
		t.Error("feed corpus differs between two generations from one seed")
	}
	if bytes.Equal(a.archive, c.archive) || bytes.Equal(a.ndjson, c.ndjson) {
		t.Error("feed corpus identical for two seeds")
	}
	if len(a.alarms) == 0 {
		t.Error("feed reference expects no alarms: the differential check would be vacuous")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsAtToySize runs all four workloads, untraced and traced,
// at toy size: the oracle checks pass and every declared metric comes
// out exactly once with its declared unit.
func TestWorkloadsAtToySize(t *testing.T) {
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(w.Name, 3, 1, traced, toySizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, r.Failed, r.Attempted, r.Failures)
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.Name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not reported", w.Name, traced, d.Name)
				} else if v.Unit != d.Unit {
					t.Errorf("%s: %s reported in %q, declared %q", w.Name, d.Name, v.Unit, d.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, v.Value)
				}
			}
			var line struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil || line.Attempted < 1 || len(line.Metrics) != len(defs) {
				t.Errorf("%s: contract line does not round-trip: %v", w.Name, err)
			}
			if traced && w.Name == "wire_churn" && r.Metrics["obs.detect_gap_us"].Value < 0 {
				t.Errorf("obs.detect_gap_us = %v: the outside measurement cannot be shorter than the program's own",
					r.Metrics["obs.detect_gap_us"].Value)
			}
			for _, d := range defs {
				if traced && r.NA[d.Name] == owns(w.Name, d.Name) {
					t.Errorf("%s: %s owned=%v but n/a=%v", w.Name, d.Name, owns(w.Name, d.Name), r.NA[d.Name])
				}
			}
		}
	}
}

// benchmarkJSON is the root BENCHMARK.json as the program's declarations
// would write it.
func benchmarkJSON() []byte {
	doc := map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   workloadDefs,
		"end_to_end":  endToEndDefs,
		"per_layer":   perLayerDefs,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// TestBenchmarkJSONMatchesProgram keeps the committed BENCHMARK.json
// equal to what the program declares.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.Name)
		}
	}
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(committed, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(benchmarkJSON(), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		if err := os.MkdirAll("out", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("out/BENCHMARK.json", benchmarkJSON(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Error("BENCHMARK.json differs from the program's declaration; the declared document is in benchmark/out/BENCHMARK.json")
	}
}

// TestTeardownEndsThePhase is the stall guard: a benchmark session
// going down mid-phase ends the phase promptly with failures counted,
// instead of leaving a sender blocked on a window that will never open.
func TestTeardownEndsThePhase(t *testing.T) {
	c := newWireCorpus(5, toyWire.prefixes)
	h, err := bootValidator(c, toyWire.window)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if _, why := h.loadTable(); why != "" {
		t.Fatal(why)
	}
	r := newResult("wire_churn", 5, false)
	time.AfterFunc(100*time.Millisecond, func() { h.fl.src[0].sess.Close() })
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.saturate(r, toyWire, 2*time.Second, churnStreams(h, 5))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("phase did not end after a session teardown")
	}
	if r.Correct || r.Failed == 0 {
		t.Error("a torn-down session left the run marked correct")
	}
}

func TestCPUShareFoldsAProfile(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	_ = x
	shares, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 99 || sum > 101 {
		t.Errorf("shares sum to %.1f%%, want 100", sum)
	}
	if shares["benchmark"] < 50 {
		t.Errorf("a loop in this package got %.1f%% of the profile", shares["benchmark"])
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "primary_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		a, b             float64
		spreadA, spreadB float64
		want             string
	}{
		{100, 95, 0.02, 0.02, "unchanged"},
		{100, 85, 0.02, 0.02, "regressed"},
		{100, 85, 0.20, 0.02, "unresolved"},
		{100, 130, 0.02, 0.02, "unchanged"},
	} {
		if got := judge(d, worsening(d, tc.a, tc.b), tc.spreadA, tc.spreadB); got != tc.want {
			t.Errorf("judge(%v -> %v, spreads %v/%v) = %s, want %s", tc.a, tc.b, tc.spreadA, tc.spreadB, got, tc.want)
		}
	}
}
