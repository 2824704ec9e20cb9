package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/mrt"
	"repro/internal/obs"
	"repro/internal/routegen"
	"repro/internal/rpki"
)

// TestReadyzWaitsForRTRSync points -rtr-addr at a cache that accepts and
// never answers: /readyz must report 503 naming the rtr probe.
func TestReadyzWaitsForRTRSync(t *testing.T) {
	cache, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	go func() {
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			c, err := cache.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
		}
	}()

	// Reserve a port for the admin endpoint so the test knows its URL.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	admin := probe.Addr().String()
	probe.Close()

	cfg := runConfig{
		listen:      "127.0.0.1:0",
		dir:         t.TempDir(),
		interval:    time.Hour,
		metricsAddr: admin,
		rtrAddr:     cache.Addr().String(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()

	var (
		code int
		body []byte
	)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + admin + "/readyz")
		if err == nil {
			code = resp.StatusCode
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("admin endpoint never answered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "rtr") {
		t.Errorf("/readyz = %d %q, want 503 naming rtr", code, body)
	}
}

var (
	victim = astypes.MustPrefix(0x83b30000, 16) // 131.179.0.0/16
	net10  = astypes.MustPrefix(0x0a000000, 8)
)

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
			{Prefix: net10, Path: astypes.NewSeqPath(701, 7)},
		},
	}
}

// secondDump is a second vantage's table. It sees AS 52 for
// 131.179.0.0/16 too, AS 9 for 10.0.0.0/8, a listed two-origin MOAS
// for 192.0.2.0/24, and an unlisted one for 198.51.100.0/24.
func secondDump() *routegen.Dump {
	victimList := core.NewList(4, 226).Communities()
	docList := core.NewList(64500, 64501).Communities()
	doc := astypes.MustPrefix(0xc0000200, 24)
	unlisted := astypes.MustPrefix(0xc6336400, 24)
	return &routegen.Dump{
		Day:  1,
		Date: time.Date(2001, 4, 6, 0, 0, 0, 0, time.UTC),
		Entries: []routegen.Entry{
			{Prefix: victim, Path: astypes.NewSeqPath(2914, 4), Communities: victimList},
			{Prefix: victim, Path: astypes.NewSeqPath(6453, 52)},
			{Prefix: net10, Path: astypes.NewSeqPath(2914, 9)},
			{Prefix: doc, Path: astypes.NewSeqPath(2914, 64500), Communities: docList},
			{Prefix: doc, Path: astypes.NewSeqPath(6453, 64501), Communities: docList},
			{Prefix: unlisted, Path: astypes.NewSeqPath(2914, 1)},
			{Prefix: unlisted, Path: astypes.NewSeqPath(6453, 2)},
		},
	}
}

func writeFile(t *testing.T, path, content string) string {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeMRT(t *testing.T, path string, d *routegen.Dump) string {
	t.Helper()
	var buf bytes.Buffer
	if err := routegen.WriteMRT(&buf, d); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, path, buf.String())
}

// replayOnly runs a replay-only run and returns its report.
func replayOnly(t *testing.T, cfg runConfig) (string, error) {
	t.Helper()
	var out strings.Builder
	cfg.report = &out
	err := run(context.Background(), cfg)
	return out.String(), err
}

// TestReplayOnlyReport replays two archives with a MOASRR database and
// a ROA file. The golden report is the one the earlier stand-alone
// off-line monitor printed for the same fixture, vantage names aside.
// The run opens no listener and creates no snapshot directory.
func TestReplayOnlyReport(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, t.TempDir())
	writeMRT(t, "rv.mrt", fixtureDump())
	writeMRT(t, "ris.mrt", secondDump())
	writeFile(t, "moasrr.txt", "131.179.0.0/16=4,226\n10.0.0.0/8=7\n192.0.2.0/24=64500,64501\n")
	writeFile(t, "roas.txt", "131.179.0.0/16=4,226\n10.0.0.0/8=9\n")
	got, err := replayOnly(t, runConfig{
		dir:      "snapshots",
		archives: []string{"rv.mrt", "ris.mrt"},
		moasrr:   "moasrr.txt",
		roaFile:  "roas.txt",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != string(golden) {
		t.Errorf("report:\n%s\nwant:\n%s", got, golden)
	}
	if _, err := os.Stat("snapshots"); !os.IsNotExist(err) {
		t.Errorf("replay-only run touched its snapshot directory: %v", err)
	}
}

// TestRunEndToEnd: a replay-only run with and without a MOASRR database
// and ROA file, and with each input missing or broken. A broken input
// fails the run with an error naming it.
func TestRunEndToEnd(t *testing.T) {
	tmp := t.TempDir()
	dump := writeMRT(t, filepath.Join(tmp, "dump.mrt"), fixtureDump())
	db := writeFile(t, filepath.Join(tmp, "moasrr.txt"), "131.179.0.0/16=4\n")
	roas := writeFile(t, filepath.Join(tmp, "roas.txt"), "131.179.0.0/16=4\n")
	bad := writeFile(t, filepath.Join(tmp, "bad.txt"), "banana=4\n")
	absent := filepath.Join(tmp, "absent")
	routers := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/500":
			http.Error(w, "broken", http.StatusInternalServerError)
		case "/text":
			io.WriteString(w, "not a MIB")
		case "/bad-prefix":
			io.WriteString(w, `{"routes":[{"prefix":"131.179.0.0","asPath":"701 4","implicitList":true}]}`)
		case "/bad-path":
			io.WriteString(w, `{"routes":[{"prefix":"131.179.0.0/16","asPath":"701 four","implicitList":true}]}`)
		}
	}))
	defer routers.Close()
	refused := "http://" + freeAddr(t) + "/debug/mib"

	report, err := replayOnly(t, runConfig{archives: []string{dump}, moasrr: db})
	if err != nil || !strings.Contains(report, "131.179.0.0/16 origins {4, 52, 226} [INVALID]") {
		t.Errorf("with MOASRR: %v\n%s", err, report)
	}
	report, err = replayOnly(t, runConfig{archives: []string{dump}})
	if err != nil || !strings.Contains(report, "131.179.0.0/16 origins {4, 52, 226}\n") ||
		!strings.Contains(report, "1 MOAS-list alarm(s)\n") || strings.Contains(report, "classes:") {
		t.Errorf("without MOASRR or ROAs: %v\n%s", err, report)
	}
	report, err = replayOnly(t, runConfig{archives: []string{dump}, roaFile: roas})
	if err != nil || !strings.Contains(report, "classes: 0 benign-moas, 0 likely-misconfig, 1 likely-hijack") {
		t.Errorf("with ROAs: %v\n%s", err, report)
	}
	for name, tc := range map[string]struct {
		cfg    runConfig
		broken string
	}{
		"missing ROA file":    {runConfig{archives: []string{dump}, roaFile: absent}, absent},
		"missing MOASRR file": {runConfig{archives: []string{dump}, moasrr: absent}, absent},
		"bad MOASRR file":     {runConfig{archives: []string{dump}, moasrr: bad}, bad},
		"missing dump":        {runConfig{archives: []string{absent}}, absent},
		"refused MIB URL":     {runConfig{archives: []string{dump, refused}}, refused},
		"MIB answering 500":   {runConfig{archives: []string{routers.URL + "/500"}}, routers.URL + "/500"},
		"MIB not JSON":        {runConfig{archives: []string{routers.URL + "/text"}}, routers.URL + "/text"},
		"MIB bad prefix":      {runConfig{archives: []string{routers.URL + "/bad-prefix"}}, routers.URL + "/bad-prefix"},
		"MIB bad path":        {runConfig{archives: []string{routers.URL + "/bad-path"}}, routers.URL + "/bad-path"},
		"MIB URL on live run": {runConfig{listen: "127.0.0.1:0", archives: []string{routers.URL}}, routers.URL},
	} {
		if _, err := replayOnly(t, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.broken) {
			t.Errorf("%s: err = %v, want one naming %s", name, err, tc.broken)
		}
	}
	if _, err := replayOnly(t, runConfig{risLive: routers.URL, archives: []string{routers.URL}}); !errors.Is(err, errUsage) {
		t.Errorf("MIB URL beside -ris-live: err = %v, want a usage error", err)
	}
}

// TestReplayMatchesInMemoryDump: replaying a dump's MRT file raises the
// same alarms (prefix, origin, verdict, class) as observing the dump
// itself.
func TestReplayMatchesInMemoryDump(t *testing.T) {
	d := fixtureDump()
	path := writeMRT(t, filepath.Join(t.TempDir(), "rv.mrt"), d)
	roas := rpki.NewStore()
	roas.Add(rpki.ROA{Prefix: victim, MaxLen: 16, Origin: 4})

	replayed := monitor.New(monitor.WithRPKI(roas))
	if _, err := replaySources(replayed, replayed.ReplayMRTFunc, nil, []string{path}, nil); err != nil {
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

// TestArchivesSharingABaseNameAreTwoVantages: every RouteViews
// collector names its dumps rib.YYYYMMDD.HHMM.bz2, so a vantage is
// named after the whole path, not the file's base name.
func TestArchivesSharingABaseNameAreTwoVantages(t *testing.T) {
	chdir(t, t.TempDir())
	writeMRT(t, filepath.Join("a", "rib.mrt"), fixtureDump())
	writeMRT(t, filepath.Join("b", "rib.mrt"), secondDump())
	m := monitor.New()
	archives := []string{filepath.Join("a", "rib.mrt"), filepath.Join("b", "rib.mrt")}
	if _, err := replaySources(m, m.ReplayMRTFunc, nil, archives, nil); err != nil {
		t.Fatal(err)
	}
	for _, g := range m.AlarmSummary() {
		if g.Prefix == victim {
			want := []string{"mrt:" + archives[0], "mrt:" + archives[1]}
			if !slices.Equal(g.Vantages, want) {
				t.Errorf("%s alarmed via %v, want %v", victim, g.Vantages, want)
			}
			return
		}
	}
	t.Fatalf("no alarm for %s: %+v", victim, m.AlarmSummary())
}

// TestReplayClassifiedAfterRTRSync: archives are replayed only once
// the RTR cache's first sync has landed, so the replayed alarm for AS
// 52 is classified against the cache's ROA for AS 4.
func TestReplayClassifiedAfterRTRSync(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cache := rpki.NewServer(ln, []rpki.ROA{{Prefix: victim, MaxLen: 16, Origin: 4}})
	defer cache.Close()
	tmp := t.TempDir()
	admin := freeAddr(t)
	cfg := runConfig{
		listen:      "127.0.0.1:0",
		dir:         tmp,
		interval:    time.Hour,
		metricsAddr: admin,
		rtrAddr:     cache.Addr(),
		archives:    []string{writeMRT(t, filepath.Join(tmp, "rv.mrt"), fixtureDump())},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()

	waitReady(t, admin)
	hijacks := scrape(t, admin, `moas_monitor_alarm_class_total{class="likely-hijack"}`)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if hijacks != "1" {
		t.Errorf("likely-hijack alarms = %q, want 1", hijacks)
	}
}

// TestReplayOnlyServesUntilInterrupted: with -metrics-addr, a
// replay-only run reports, then serves its admin endpoint (ready, since
// the replay is done) until its context is canceled.
func TestReplayOnlyServesUntilInterrupted(t *testing.T) {
	admin := freeAddr(t)
	var out strings.Builder
	cfg := runConfig{
		metricsAddr: admin,
		archives:    []string{writeMRT(t, filepath.Join(t.TempDir(), "rv.mrt"), fixtureDump())},
		report:      &out,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()

	waitReady(t, admin)
	alarms := scrape(t, admin, "moas_monitor_alarms_total")
	select {
	case err := <-done:
		t.Fatalf("run returned before it was interrupted: %v", err)
	default:
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if alarms != "1" || !strings.Contains(out.String(), "1 MOAS-list alarm(s)") {
		t.Errorf("served %q alarms, reported:\n%s", alarms, out.String())
	}
}

// TestInterruptWhileWaitingForRTRSync: a run interrupted while it waits
// for a cache that never answers unwinds without an error instead of
// reporting a sync timeout, and replays nothing.
func TestInterruptWhileWaitingForRTRSync(t *testing.T) {
	cache, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	var out strings.Builder
	cfg := runConfig{
		rtrAddr:  cache.Addr().String(),
		archives: []string{writeMRT(t, filepath.Join(t.TempDir(), "rv.mrt"), fixtureDump())},
		report:   &out,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := run(ctx, cfg); err != nil {
		t.Errorf("interrupted run: %v", err)
	}
	if took := time.Since(start); took >= rtrSyncTimeout {
		t.Errorf("run took %s to notice the interrupt", took)
	}
	if out.Len() != 0 {
		t.Errorf("interrupted run reported:\n%s", out.String())
	}
}

// TestReplayProgressCountsDecodedRecords: a replay without a hook (the
// monitor-only path) adds to its progress, per archive, the records a
// per-record hook (the live collector's path) would have counted.
func TestReplayProgressCountsDecodedRecords(t *testing.T) {
	tmp := t.TempDir()
	archives := []string{
		writeMRT(t, filepath.Join(tmp, "rv.mrt"), fixtureDump()),
		writeMRT(t, filepath.Join(tmp, "ris.mrt"), secondDump()),
	}
	perArchive, perRecord := &obs.Progress{}, &obs.Progress{}
	m := monitor.New()
	if _, err := replaySources(m, m.ReplayMRTFunc, nil, archives, perArchive); err != nil {
		t.Fatal(err)
	}
	hook := func(*mrt.Record) { perRecord.AddRecords(1) }
	m = monitor.New()
	if _, err := replaySources(m, m.ReplayMRTFunc, hook, archives, perRecord); err != nil {
		t.Fatal(err)
	}
	got, want := perArchive.Snapshot(), perRecord.Snapshot()
	if want.Records == 0 || got.Records != want.Records || !got.Done || got.Bytes != want.Bytes {
		t.Errorf("per-archive progress %+v, per-record progress %+v", got, want)
	}
}

// chdir changes the working directory to dir for the rest of the test,
// so relative archive paths, and so vantage names, are stable. Tests
// that call it must not run in parallel.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// freeAddr reserves a loopback port for an admin endpoint so the test
// knows its URL.
func freeAddr(t *testing.T) string {
	t.Helper()
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	return probe.Addr().String()
}

// waitReady polls /readyz on the admin endpoint until it answers 200.
func waitReady(t *testing.T, admin string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + admin + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s/readyz never ok: %v", admin, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scrape returns the value of one series from the endpoint's /metrics.
func scrape(t *testing.T, admin, series string) string {
	t.Helper()
	resp, err := http.Get("http://" + admin + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if value, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			return value
		}
	}
	return ""
}
