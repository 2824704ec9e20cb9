package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/measure"
	"repro/internal/routegen"
)

func TestRunShortWindow(t *testing.T) {
	if err := run(7, 30 /* days */, "", 0, 0, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunEmitDumpsAndCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run(7, 30, dir, 2, 3, ""); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || filepath.Ext(entries[0].Name()) != ".mrt" {
		t.Fatalf("emitted %v, want 3 .mrt dumps", entries)
	}

	csvDir := t.TempDir()
	if err := run(7, 30, "", 0, 0, csvDir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig4.csv", "fig5.csv"} {
		if _, err := os.Stat(filepath.Join(csvDir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}

// TestEmittedDumpsMeasureLikeTheSeries closes the loop: a seeded series
// written with -emit-dumps and measured with -mrt gives the same Figure
// 4 series and §3 summary as measuring the generator directly.
func TestEmittedDumpsMeasureLikeTheSeries(t *testing.T) {
	const seed, days = 7, 30
	dir := t.TempDir()
	if err := run(seed, days, dir, 0, days, ""); err != nil {
		t.Fatal(err)
	}
	if err := runMRT(dir, ""); err != nil {
		t.Fatal(err)
	}
	fromMRT := measure.NewAnalysis()
	if _, err := fromMRT.ObserveMRTDir(dir); err != nil {
		t.Fatal(err)
	}

	cfg := routegen.DefaultConfig()
	cfg.Seed, cfg.Days = seed, days
	gen, err := routegen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := measure.Run(gen)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fromMRT.Daily(), direct.Daily(); !reflect.DeepEqual(got, want) {
		t.Errorf("daily series differs:\nmrt    %v\ndirect %v", got, want)
	}
	if got, want := fromMRT.Summarize(), direct.Summarize(); !reflect.DeepEqual(got, want) {
		t.Errorf("summary differs:\nmrt\n%v\ndirect\n%v", got, want)
	}
}
