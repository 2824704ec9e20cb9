package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/routegen"
	"repro/internal/rpki"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadMOASRR(t *testing.T) {
	path := writeFile(t, "moasrr.txt", `
# comment and blank lines are skipped

131.179.0.0/16 = 4, 226
10.0.0.0/8=7
`)
	store, err := loadMOASRR(path)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("Len = %d", store.Len())
	}
	list, ok := store.ValidOrigins(astypes.MustPrefix(0x83b30000, 16))
	if !ok || !list.Contains(4) || !list.Contains(226) {
		t.Errorf("record = %v, %v", list, ok)
	}
}

func TestLoadMOASRRErrors(t *testing.T) {
	cases := map[string]string{
		"no equals":  "131.179.0.0/16 4\n",
		"bad prefix": "banana=4\n",
		"bad asn":    "10.0.0.0/8=x\n",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			path := writeFile(t, "bad.txt", content)
			if _, err := loadMOASRR(path); err == nil {
				t.Error("bad database accepted")
			}
		})
	}
	if _, err := loadMOASRR(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("missing file accepted")
	}
}

var victim = astypes.MustPrefix(0x83b30000, 16)

// fixtureDump is one vantage's table: 131.179.0.0/16 announced by its
// listed origins 4 and 226, and by AS 52 with no MOAS list.
func fixtureDump() *routegen.Dump {
	list := core.NewList(4, 226).Communities()
	return &routegen.Dump{
		Day:  1,
		Date: time.Date(2001, 4, 6, 0, 0, 0, 0, time.UTC),
		Entries: []routegen.Entry{
			{Prefix: victim, Path: astypes.NewSeqPath(701, 4), Communities: list},
			{Prefix: victim, Path: astypes.NewSeqPath(3561, 226), Communities: list},
			{Prefix: victim, Path: astypes.NewSeqPath(1239, 52)},
			{Prefix: astypes.MustPrefix(0x0a000000, 8), Path: astypes.NewSeqPath(701, 7)},
		},
	}
}

func writeMRT(t *testing.T, name string, d *routegen.Dump) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := routegen.WriteMRT(f, d); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	dump := writeMRT(t, "dump.mrt", fixtureDump())
	db := writeFile(t, "moasrr.txt", "131.179.0.0/16=4\n")
	if err := run(db, "", "", "", true, []string{dump}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run("", "", "", "", false, []string{dump}); err != nil {
		t.Fatalf("run without db: %v", err)
	}
	roas := writeFile(t, "roas.txt", "131.179.0.0/16=4\n")
	if err := run("", "", roas, "", true, []string{dump}); err != nil {
		t.Fatalf("run with ROAs: %v", err)
	}
	if err := run("", "", filepath.Join(t.TempDir(), "absent"), "", false, []string{dump}); err == nil {
		t.Error("missing ROA file accepted")
	}
	if err := run("", "", "", "", false, []string{"/does/not/exist"}); err == nil {
		t.Error("missing dump accepted")
	}
}

// TestReplayMatchesInMemoryDump: replaying a dump's MRT file raises the
// same alarms (prefix, origin, verdict, class) as observing the dump
// itself.
func TestReplayMatchesInMemoryDump(t *testing.T) {
	d := fixtureDump()
	path := writeMRT(t, "rv.mrt", d)
	roas := rpki.NewStore()
	roas.Add(rpki.ROA{Prefix: victim, MaxLen: 16, Origin: 4})

	replayed := monitor.New(monitor.WithRPKI(roas))
	if err := replayDumps(replayed, []string{path}); err != nil {
		t.Fatal(err)
	}
	direct := monitor.New(monitor.WithRPKI(roas))
	direct.ObserveDump("rv.mrt", d)

	keys := func(alarms []monitor.Alarm) []string {
		out := make([]string, len(alarms))
		for i, a := range alarms {
			out[i] = fmt.Sprintf("%s origin=%s verdict=%s class=%s",
				a.Conflict.Prefix, a.Conflict.Origin, a.Conflict.Verdict, a.Class)
		}
		return out
	}
	got, want := keys(replayed.Alarms()), keys(direct.Alarms())
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("replayed alarms %v, in-memory alarms %v", got, want)
	}
}
