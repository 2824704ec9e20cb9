package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds the exposition golden test's fixture:
// every metric kind, labeled and unlabeled series, label values needing
// escaping, and histogram observations across several buckets.
func goldenRegistry() *Registry {
	r := NewRegistry("demo")
	r.Counter("requests_total", "Total requests served.").Add(42)

	msgs := r.CounterVec("msgs_total", "Messages by type.", "type")
	msgs.With("update").Add(3)
	msgs.With("keepalive").Add(7)

	r.Gauge("peers", "Established peers.").Set(2)

	esc := r.GaugeVec("weird_labels", `Help with a backslash \ and
a newline.`, "path")
	esc.With("C:\\dir \"quoted\"\nnext").Set(1)

	// Observed values are binary-exact (powers of two and their sums) so
	// the _sum is exact — float rounding must not leak into golden
	// output.
	h := r.Histogram("rtt_seconds", "Round-trip time.")
	h.Observe(250 * time.Millisecond)
	h.Observe(125 * time.Millisecond)
	h.Observe(750 * time.Millisecond)
	h.Observe(2 * time.Second)
	h.Observe(32 * time.Second)
	h.Observe(32 * time.Second)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenPrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, goldenRegistry()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "exposition.prom.golden", buf.Bytes())
}

func TestGoldenEmptyRegistry(t *testing.T) {
	r := NewRegistry("")
	var prom bytes.Buffer
	if err := WritePrometheus(&prom, r); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "empty.prom.golden", prom.Bytes())
}
