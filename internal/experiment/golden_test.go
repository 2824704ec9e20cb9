package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFiguresGolden pins the §5 study's output: WriteCSV of every panel
// of every figure in Figures at the published sweep, in table order.
// False-route shares, alarm counts and message counts all appear, so
// any change to the simulator's model or to the sweep shows up here.
// Run with -update to regenerate testdata/figures.csv.golden.
func TestFiguresGolden(t *testing.T) {
	var got bytes.Buffer
	for i := range Figures {
		fig := &Figures[i]
		cfgs, err := fig.Sweeps(paperSet(t), 0, PublishedSeed, PublishedMaxAttackerPct)
		if err != nil {
			t.Fatal(err)
		}
		sweeps, err := SweepAll(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range sweeps {
			if err := WriteCSV(&got, res); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join("testdata", "figures.csv.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("figures CSV mismatch\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}
