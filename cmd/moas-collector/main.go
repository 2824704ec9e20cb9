// Command moas-collector runs a Route-Views-style passive route
// collector: it accepts BGP peerings on a listen address, archives
// periodic table snapshots to a directory as MRT table dumps, and
// (with -check) checks every snapshot through the off-line MOAS
// monitor, printing alarms as they appear — the §4.2 off-line
// deployment, live.
//
// Two internet-scale ingest paths complement the TCP peerings:
// -mrt-replay feeds an archived MRT table dump / update trace through
// the same session→RIB→alarm path (span IDs point back at the archive
// records), and -ris-live consumes a RIS-Live-style streaming JSON feed
// with a bounded channel and an explicit backpressure policy.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/astypes"
	"repro/internal/collector"
	"repro/internal/monitor"
	"repro/internal/mrt"
	"repro/internal/mrt/rislive"
	"repro/internal/obs"
	"repro/internal/rpki"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:1790", "address accepting BGP peerings")
		dir         = flag.String("dir", "dumps", "snapshot output directory")
		interval    = flag.Duration("interval", time.Minute, "snapshot interval")
		check       = flag.Bool("check", false, "run the off-line MOAS monitor on every snapshot")
		metricsAddr = flag.String("metrics-addr", "", "admin endpoint address serving /metrics, /healthz, /readyz, /debug/status and /debug/runtime")
		traceEvents = flag.Int("trace-events", 0, "flight-recorder ring size; nonzero serves /debug/trace and /debug/alarms on the admin endpoint")
		pprof       = flag.Bool("pprof", false, "mount net/http/pprof on the admin endpoint")
		mrtReplay   = flag.String("mrt-replay", "", "MRT file (raw, .gz or .bz2) to replay through the RIB and monitor at startup")
		risLive     = flag.String("ris-live", "", "RIS-Live streaming JSON endpoint to ingest (implies -check)")
		risBuffer   = flag.Int("ris-buffer", rislive.DefaultBuffer, "bounded-channel capacity for -ris-live")
		risPolicy   = flag.String("ris-policy", "block", "backpressure policy for -ris-live: block or drop")
		roaFile     = flag.String("roa-file", "", "ROA file (prefix=origin[@maxlen],...) cross-validating monitor alarms against the RPKI")
		rtrAddr     = flag.String("rtr-addr", "", "RTR-style cache server keeping the ROA store synchronized")
	)
	flag.Parse()
	if *traceEvents < 0 {
		fmt.Fprintln(os.Stderr, "moas-collector: negative -trace-events")
		os.Exit(1)
	}
	policy, err := rislive.ParsePolicy(*risPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "moas-collector:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		listen:      *listen,
		dir:         *dir,
		interval:    *interval,
		check:       *check,
		metricsAddr: *metricsAddr,
		traceEvents: *traceEvents,
		pprof:       *pprof,
		mrtReplay:   *mrtReplay,
		risLive:     *risLive,
		risBuffer:   *risBuffer,
		risPolicy:   policy,
		roaFile:     *roaFile,
		rtrAddr:     *rtrAddr,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "moas-collector:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	listen      string
	dir         string
	interval    time.Duration
	check       bool
	metricsAddr string
	traceEvents int
	pprof       bool
	mrtReplay   string
	risLive     string
	risBuffer   int
	risPolicy   rislive.Policy
	roaFile     string
	rtrAddr     string
}

// run serves until ctx is canceled, then writes a final snapshot.
func run(ctx context.Context, cfg runConfig) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
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
	if cfg.mrtReplay != "" {
		// A collector still replaying its archive serves a partial
		// table; hold readiness until the replay lands.
		replay = &obs.Progress{}
		ready.Register("mrt-replay", replay.Done, "replay not finished")
	}

	c := collector.New(collector.Config{RouterID: 6447, Telemetry: reg, Trace: rec, Obs: obsRec})
	defer c.Close()

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
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	c.Listen(ln)
	log.Printf("moas-collector: AS %d listening on %s", collector.CollectorASN, ln.Addr())

	// The monitor exists whenever anything feeds it: snapshot checking,
	// an MRT replay, or a live stream.
	var mon *monitor.Monitor
	if cfg.check || cfg.mrtReplay != "" || cfg.risLive != "" {
		monOpts := []monitor.Option{monitor.WithTelemetry(reg), monitor.WithObs(obsRec)}
		if rec != nil {
			monOpts = append(monOpts, monitor.WithTrace(rec))
		}
		if roaStore != nil {
			monOpts = append(monOpts, monitor.WithRPKI(roaStore))
		}
		mon = monitor.New(monOpts...)
	}

	if cfg.mrtReplay != "" {
		if err := replayMRT(c, mon, cfg.mrtReplay, replay); err != nil {
			return err
		}
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
			c.ConsumeRISLive(stage.Events(), mon, nil)
		}()
		log.Printf("moas-collector: ingesting %s (buffer %d, policy %s)",
			cfg.risLive, cfg.risBuffer, cfg.risPolicy)
	}

	var opts []collector.ArchiverOption
	if cfg.check && mon != nil {
		opts = append(opts, collector.WithMonitor(mon, func(a monitor.Alarm) {
			log.Printf("ALARM [%s] class=%s: %s", a.Vantage, a.Class, a.Conflict.Error())
		}))
	}
	arch, err := collector.NewArchiver(c, cfg.dir, cfg.interval, opts...)
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

// replayMRT streams one archive through the monitor, mirroring every
// record into the collector RIB so subsequent snapshots include the
// replayed table.
func replayMRT(c *collector.Collector, mon *monitor.Monitor, path string, progress *obs.Progress) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil {
		progress.SetTotalBytes(uint64(fi.Size()))
	}
	start := time.Now()
	var inject wire.Update
	res, err := mon.ReplayMRTFunc("mrt:"+path, progress.CountReader(f), func(rec *mrt.Record) {
		progress.AddRecords(1)
		switch rec.Kind {
		case mrt.KindRIB:
			// Each RIB entry becomes a one-prefix announcement from its
			// peer; Inject clones, so reusing one scratch update is safe.
			for i := range rec.Entries {
				e := &rec.Entries[i]
				inject = wire.Update{NLRI: []astypes.Prefix{rec.Prefix}}
				inject.Attrs.ASPath = e.Path
				inject.Attrs.Communities = e.Communities
				inject.Attrs.HasOrigin = true
				inject.Attrs.Origin = e.Origin
				inject.Attrs.HasNextHop = true
				inject.Attrs.NextHop = e.NextHop
				c.Inject(e.PeerAS, &inject)
			}
		case mrt.KindMessage:
			if rec.Update != nil {
				c.Inject(rec.PeerAS, rec.Update)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("replay %s: %w", path, err)
	}
	progress.MarkDone()
	log.Printf("moas-collector: replayed %s in %s: %d records (%d RIB prefixes, %d entries, %d updates), %d skipped, %d malformed, %d AS4-substituted",
		path, time.Since(start).Round(time.Millisecond), res.Stats.Records, res.Stats.RIBPrefixes,
		res.Stats.RIBEntries, res.Stats.Updates, res.Stats.Skipped, res.Malformed, res.Stats.AS4Substituted)
	return nil
}
