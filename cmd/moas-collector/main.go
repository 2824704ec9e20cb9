// Command moas-collector is the off-line MOAS checking process of §4.2,
// its management application over router MIBs, and a Route-Views-style
// passive route collector.
//
// It checks the sources named as arguments in order and logs each
// alarm: MRT table dumps (RouteViews/RIS archives; plain, gzip or
// bzip2), one vantage "mrt:<path>" per file, and router MIB URLs (a
// moas-speaker's http://<metricsAddr>/debug/mib), one vantage per URL.
// A run with no live source (-listen "" and no -ris-live) is
// replay-only, as MIB URLs need: it opens no listener, writes no
// snapshots, prints the MOAS cases (valid or invalid against a -moasrr
// database of prefix=asn,asn lines), the alarm count and classes and
// the alarms per prefix, then exits 0, or with -metrics-addr serves its
// admin endpoint until interrupted.
//
// A live run accepts BGP peerings on -listen, mirrors every source into
// its RIB and archives periodic table snapshots to -dir. With -check
// (implied by archives and by -ris-live, a RIS-Live-style streaming
// JSON feed read through a bounded channel with a backpressure policy)
// the monitor checks every UPDATE from every source once, as it
// arrives — the §4.2 off-line deployment, live.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/astypes"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/dnsval"
	"repro/internal/monitor"
	"repro/internal/mrt"
	"repro/internal/mrt/rislive"
	"repro/internal/obs"
	"repro/internal/routegen"
	"repro/internal/rpki"
	"repro/internal/speaker"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// rtrSyncTimeout bounds the wait for an RTR cache's first full sync:
// archives are replayed only once the ROA store is complete.
const rtrSyncTimeout = 30 * time.Second

// mibTimeout bounds the fetch of one router's MIB, dial to last byte.
const mibTimeout = 10 * time.Second

func main() {
	cfg := runConfig{report: os.Stdout}
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:1790", `address accepting BGP peerings; "" opens none, and a run with neither a listener nor -ris-live is replay-only`)
	flag.StringVar(&cfg.dir, "dir", "dumps", "snapshot output directory")
	flag.DurationVar(&cfg.interval, "interval", time.Minute, "snapshot interval")
	flag.BoolVar(&cfg.check, "check", false, "check every update from every source with the off-line MOAS monitor and log each alarm")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "admin endpoint address serving /metrics, /healthz, /readyz and /debug/status")
	flag.IntVar(&cfg.traceEvents, "trace-events", 0, "flight-recorder ring size; nonzero serves /debug/trace and /debug/alarms on the admin endpoint")
	flag.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof on the admin endpoint")
	flag.StringVar(&cfg.risLive, "ris-live", "", "RIS-Live streaming JSON endpoint to ingest (implies -check)")
	flag.IntVar(&cfg.risBuffer, "ris-buffer", rislive.DefaultBuffer, "bounded-channel capacity for -ris-live")
	risPolicy := flag.String("ris-policy", "block", "backpressure policy for -ris-live: block or drop")
	flag.StringVar(&cfg.roaFile, "roa-file", "", "ROA file (prefix=origin[@maxlen],...) cross-validating monitor alarms against the RPKI")
	flag.StringVar(&cfg.rtrAddr, "rtr-addr", "", "RTR-style cache server keeping the ROA store synchronized; archives are replayed once it has synced")
	flag.StringVar(&cfg.moasrr, "moasrr", "", "MOASRR database file (prefix=asn,asn lines) marking each MOAS case in a replay-only run's report valid or invalid")
	flag.Parse()
	cfg.archives = flag.Args()
	if cfg.traceEvents < 0 {
		fmt.Fprintln(os.Stderr, "moas-collector: negative -trace-events")
		os.Exit(1)
	}
	var err error
	if cfg.risPolicy, err = rislive.ParsePolicy(*risPolicy); err != nil {
		fmt.Fprintln(os.Stderr, "moas-collector:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "moas-collector:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks flags and sources that cannot run together: exit 2.
var errUsage = errors.New("usage")

// checkUsage rejects a replay-only run with nothing to replay, and a
// live run given -moasrr or MIB URLs, which only a replay-only run takes.
func checkUsage(cfg runConfig) error {
	live := cfg.listen != "" || cfg.risLive != ""
	if !live && len(cfg.archives) == 0 {
		return fmt.Errorf(`%w: moas-collector [flags] [dump.mrt | http://<router>/debug/mib ...]; a run with -listen "" and no -ris-live needs one to replay`, errUsage)
	}
	if live && cfg.moasrr != "" {
		return fmt.Errorf(`%w: -moasrr marks a replay-only run's report; it needs -listen "" and no -ris-live`, errUsage)
	}
	if i := slices.IndexFunc(cfg.archives, isMIBURL); live && i >= 0 {
		return fmt.Errorf(`%w: MIB URL %s needs a replay-only run: -listen "" and no -ris-live`, errUsage, cfg.archives[i])
	}
	return nil
}

type runConfig struct {
	listen      string
	dir         string
	interval    time.Duration
	check       bool
	metricsAddr string
	traceEvents int
	pprof       bool
	archives    []string // the positional sources: MRT archive paths and MIB URLs
	risLive     string
	risBuffer   int
	risPolicy   rislive.Policy
	roaFile     string
	rtrAddr     string
	moasrr      string
	// report receives a replay-only run's report.
	report io.Writer
}

// replayFunc is Monitor.ReplayMRTFunc or Collector.ReplayMRT.
type replayFunc func(vantage string, r io.Reader, hook func(*mrt.Record)) (monitor.ReplayResult, error)

// run replays the sources, then either reports and returns (a
// replay-only run) or serves until ctx is canceled and writes a final
// snapshot.
func run(ctx context.Context, cfg runConfig) error {
	if err := checkUsage(cfg); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	live := cfg.listen != "" || cfg.risLive != ""
	reg := telemetry.NewRegistry("moas")
	telemetry.RegisterBuildInfo(reg)
	var rec *trace.Recorder
	if cfg.traceEvents > 0 {
		rec = trace.NewRecorder(cfg.traceEvents)
	}

	// The detection-latency observatory: every ingest path (TCP
	// peerings, MRT replay, RIS-Live) stamps messages against this
	// recorder, and /debug/status serves the per-stage breakdown.
	obsRec := obs.NewRecorder()
	ready := &telemetry.Readiness{}
	var replay *obs.Progress
	if len(cfg.archives) > 0 {
		// A collector still replaying its archives serves a partial
		// table; hold readiness until the replay lands.
		replay = &obs.Progress{}
		ready.Register("mrt-replay", replay.Done, "replay not finished")
	}

	// The stage is built (and its readiness probe registered) before
	// the admin endpoint starts serving /readyz.
	var stage *rislive.Stage
	if cfg.risLive != "" {
		stage = rislive.NewStage(rislive.Config{
			URL:      cfg.risLive,
			Buffer:   cfg.risBuffer,
			Policy:   cfg.risPolicy,
			Registry: reg,
			Obs:      obsRec,
		})
		ready.Register("ris-live", stage.Connected, "stream not connected")
	}

	// Any ROA source turns on RPKI/ROV cross-validation: monitor alarms
	// then carry a benign-moas / likely-misconfig / likely-hijack class.
	roaStore, rtr, err := rpki.Open(cfg.roaFile, nil, rpki.ClientConfig{Addr: cfg.rtrAddr, Registry: reg})
	if err != nil {
		return err
	}
	if cfg.roaFile != "" {
		log.Printf("moas-collector: loaded %d ROAs from %s", roaStore.Len(), cfg.roaFile)
	}
	if rtr != nil {
		// Alarm classes are not trustworthy until the first sync lands.
		ready.Register("rtr", rtr.Synced, "cache not synced")
	}

	// The monitor checks every UPDATE from every source once, as it
	// arrives. A live run's collector owns it and mirrors every source
	// into its RIB; a replay-only run keeps no RIB.
	var mon *monitor.Monitor
	if !live || cfg.check || len(cfg.archives) > 0 || cfg.risLive != "" {
		opts := []monitor.Option{monitor.WithTelemetry(reg), monitor.WithObs(obsRec),
			monitor.WithTrace(rec), monitor.WithRPKI(roaStore),
			monitor.WithOnAlarm(func(a monitor.Alarm) {
				log.Printf("ALARM [%s] class=%s: %s", a.Vantage, a.Class, a.Conflict.Error())
			})}
		if cfg.moasrr != "" {
			f, err := os.Open(cfg.moasrr)
			if err != nil {
				return err
			}
			db, err := dnsval.Parse(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", cfg.moasrr, err)
			}
			opts = append(opts, monitor.WithResolver(db))
		}
		mon = monitor.New(opts...)
	}
	var c *collector.Collector
	if live {
		c = collector.New(collector.Config{RouterID: 6447, Telemetry: reg, Trace: rec, Obs: obsRec, Monitor: mon})
		defer c.Close()
	}

	if cfg.metricsAddr != "" {
		admin, err := obs.Serve(cfg.metricsAddr, obs.SurfaceConfig{
			Registry: reg,
			Ready:    ready,
			Stages:   obsRec,
			Trace:    rec,
			Replay:   replay,
			Pprof:    cfg.pprof,
		})
		if err != nil {
			return err
		}
		defer admin.Close()
		log.Printf("moas-collector: metrics at http://%s/metrics", admin.Addr())
	}
	if cfg.listen != "" {
		ln, err := net.Listen("tcp", cfg.listen)
		if err != nil {
			return err
		}
		c.Listen(ln)
		log.Printf("moas-collector: AS %d listening on %s", collector.CollectorASN, ln.Addr())
	}

	// Every goroutine started below is joined before run returns, and
	// so before the deferred c.Close: the RIS-Live consumer injects into
	// the collector until the stage closes its channel.
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	if rtr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rtr.Run(ctx)
		}()
		log.Printf("moas-collector: syncing ROAs from RTR cache %s", cfg.rtrAddr)
	}
	var firstMIB map[astypes.Prefix]string
	if len(cfg.archives) > 0 {
		if rtr != nil {
			if err := waitSynced(ctx, rtr); err != nil {
				if ctx.Err() != nil {
					return nil // interrupted while waiting
				}
				return fmt.Errorf("rtr cache %s: %w", cfg.rtrAddr, err)
			}
		}
		// A live run counts replayed records as they pass through the
		// collector's RIB mirror; a monitor-only replay has no such seam
		// and counts them per archive.
		replayMRT := replayFunc(mon.ReplayMRTFunc)
		var hook func(*mrt.Record)
		if c != nil {
			replayMRT, hook = c.ReplayMRT, func(*mrt.Record) { replay.AddRecords(1) }
		}
		if firstMIB, err = replaySources(mon, replayMRT, hook, cfg.archives, replay); err != nil {
			return err
		}
	}
	if !live {
		writeReport(cfg.report, mon, roaStore != nil, len(cfg.archives), firstMIB)
		if cfg.metricsAddr != "" {
			log.Printf("moas-collector: replay done, serving the admin endpoint until interrupted")
			<-ctx.Done()
		}
		return nil
	}

	if stage != nil {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := stage.Run(ctx); err != nil && ctx.Err() == nil {
				log.Printf("moas-collector: ris-live stream: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			c.ConsumeRISLive(stage.Events(), nil)
		}()
		log.Printf("moas-collector: ingesting %s (buffer %d, policy %s)",
			cfg.risLive, cfg.risBuffer, cfg.risPolicy)
	}

	arch, err := collector.NewArchiver(c, cfg.dir, cfg.interval)
	if err != nil {
		return err
	}
	defer arch.Close()
	if err := arch.Start(); err != nil {
		return err
	}
	log.Printf("moas-collector: archiving to %s every %s", cfg.dir, cfg.interval)

	<-ctx.Done()
	if stage != nil {
		cnt := stage.Counters()
		log.Printf("moas-collector: ris-live received %d delivered %d dropped %d parse-errors %d reconnects %d",
			cnt.Received, cnt.Delivered, cnt.Dropped, cnt.ParseErrors, cnt.Reconnects)
	}
	log.Println("moas-collector: final snapshot and shutdown")
	if name, err := arch.SnapshotNow(); err == nil {
		log.Println("moas-collector: wrote", name)
	}
	return nil
}

// waitSynced polls the RTR client until its first full sync lands,
// failing after rtrSyncTimeout, or returns ctx.Err() if ctx ends first.
func waitSynced(ctx context.Context, rtr *rpki.Client) error {
	deadline := time.NewTimer(rtrSyncTimeout)
	defer deadline.Stop()
	for !rtr.Synced() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline.C:
			return fmt.Errorf("no full sync within %s", rtrSyncTimeout)
		case <-time.After(10 * time.Millisecond):
		}
	}
	return nil
}

// replaySources replays each source in order: an MRT archive under the
// vantage "mrt:"+path through replayMRT with hook (which may be nil), a
// router's MIB route table under its URL through m.ObserveDump. It
// counts archive bytes into progress (which may be nil), and with a nil
// hook each archive's records, or MIB's routes, once it is done. Records
// whose bodies fail to decode are skipped and logged; a broken record
// framing, or a MIB that cannot be read, aborts. It returns, for each
// prefix a MIB carried, a note naming the first MIB to carry it and that
// row's list, for the report's alarm line: first-seen checking alarms
// only the MIBs read later, so that router is named nowhere else.
func replaySources(m *monitor.Monitor, replayMRT replayFunc, hook func(*mrt.Record), sources []string, progress *obs.Progress) (map[astypes.Prefix]string, error) {
	firstMIB := make(map[astypes.Prefix]string)
	var total uint64
	for _, path := range sources {
		if fi, err := os.Stat(path); err == nil {
			total += uint64(fi.Size())
		}
	}
	progress.SetTotalBytes(total)
	for _, path := range sources {
		if isMIBURL(path) {
			mib, d, err := fetchMIB(path)
			if err != nil {
				return nil, fmt.Errorf("read MIB %s: %w", path, err)
			}
			m.ObserveDump(path, d)
			for _, e := range d.Entries {
				if list, err := core.EffectiveList(e.Communities, e.Path); err == nil && firstMIB[e.Prefix] == "" {
					firstMIB[e.Prefix] = fmt.Sprintf("; first MIB %s lists %s", path, list)
				}
			}
			progress.AddRecords(uint64(len(d.Entries)))
			log.Printf("moas-collector: read MIB %s: AS %s, %d routes, %d router alarm(s)",
				path, mib.AS, len(d.Entries), mib.Counters.Alarms)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := replayMRT("mrt:"+path, progress.CountReader(f), hook)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", path, err)
		}
		if hook == nil {
			progress.AddRecords(res.Stats.Records - res.Stats.Skipped)
		}
		log.Printf("moas-collector: replayed %s in %s: %d records (%d RIB prefixes, %d entries, %d updates), %d skipped, %d malformed, %d AS4-substituted",
			path, time.Since(start).Round(time.Millisecond), res.Stats.Records, res.Stats.RIBPrefixes,
			res.Stats.RIBEntries, res.Stats.Updates, res.Stats.Skipped, res.Malformed, res.Stats.AS4Substituted)
	}
	progress.MarkDone()
	return firstMIB, nil
}

// isMIBURL reports whether a source names a router's MIB (a
// moas-speaker's http://<metricsAddr>/debug/mib) rather than an archive.
func isMIBURL(source string) bool {
	return strings.HasPrefix(source, "http://") || strings.HasPrefix(source, "https://")
}

// fetchMIB reads a router's MIB: §4.2's management application gets
// "all MOAS List through the MIB interface".
func fetchMIB(url string) (speaker.MIB, *routegen.Dump, error) {
	resp, err := (&http.Client{Timeout: mibTimeout}).Get(url)
	if err != nil {
		return speaker.MIB{}, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return speaker.MIB{}, nil, fmt.Errorf("status %s", resp.Status)
	}
	return decodeMIB(resp.Body)
}

// decodeMIB decodes a MIB and makes each route row one dump entry: its
// prefix, its path and, if explicit, its list as MOAS-list communities.
// That is lossless for a speaker's rows, whose explicit lists are never
// empty and came through a 16-bit carrier; any other row fails the MIB.
func decodeMIB(r io.Reader) (speaker.MIB, *routegen.Dump, error) {
	var mib speaker.MIB
	if err := json.NewDecoder(r).Decode(&mib); err != nil {
		return mib, nil, err
	}
	d := &routegen.Dump{Entries: make([]routegen.Entry, len(mib.Routes))}
	for i, row := range mib.Routes {
		e := &d.Entries[i]
		var err error
		if e.Prefix, err = astypes.ParsePrefix(row.Prefix); err != nil {
			return mib, nil, err
		}
		if e.Path, err = astypes.ParseASPath(row.Path); err != nil {
			return mib, nil, err
		}
		if row.Implicit {
			continue
		}
		members := make([]astypes.ASN, len(row.MOASList))
		for j, s := range row.MOASList {
			if members[j], err = astypes.ParseASN(s); err == nil && members[j] > astypes.Max2Octet {
				err = fmt.Errorf("MOAS-list member %s exceeds 16 bits", s)
			}
			if err != nil {
				return mib, nil, fmt.Errorf("route %s: %w", row.Prefix, err)
			}
		}
		if e.Communities = core.NewList(members...).Communities(); e.Communities == nil {
			return mib, nil, fmt.Errorf("route %s: empty explicit MOAS list", row.Prefix)
		}
	}
	return mib, d, nil
}

// writeReport prints a replay-only run's findings: every multi-origin
// case (marked valid or invalid when the MOASRR database has a record
// for it), the alarm count with its ROV classes when a ROA source is
// set, and the alarms grouped by prefix, each with its firstMIB note.
func writeReport(w io.Writer, m *monitor.Monitor, classes bool, dumps int, firstMIB map[astypes.Prefix]string) {
	cases := m.MOASCases()
	fmt.Fprintf(w, "%d MOAS cases across %d dump(s)\n", len(cases), dumps)
	for _, c := range cases {
		status := ""
		if c.Known {
			status = " [valid]"
			if c.Invalid {
				status = " [INVALID]"
			}
		}
		fmt.Fprintf(w, "  %s origins %s%s\n", c.Prefix, core.NewList(c.Origins...), status)
	}

	alarms := m.Alarms()
	fmt.Fprintf(w, "%d MOAS-list alarm(s)\n", len(alarms))
	if classes {
		var byClass [rpki.NumClasses]int
		for _, a := range alarms {
			byClass[a.Class]++
		}
		fmt.Fprintf(w, "  classes: %d %s, %d %s, %d %s\n",
			byClass[rpki.ClassBenignMOAS], rpki.ClassBenignMOAS,
			byClass[rpki.ClassLikelyMisconfig], rpki.ClassLikelyMisconfig,
			byClass[rpki.ClassLikelyHijack], rpki.ClassLikelyHijack)
	}
	for _, g := range m.AlarmSummary() {
		fmt.Fprintf(w, "  %s: %d alarm(s), conflicting origins %s via %s%s\n",
			g.Prefix, g.Count, core.NewList(g.Origins...), strings.Join(g.Vantages, ", "), firstMIB[g.Prefix])
	}
}
