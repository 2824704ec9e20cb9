// Command moas-collector runs a Route-Views-style passive route
// collector: it accepts BGP peerings on a listen address and archives
// periodic table snapshots to a directory as MRT table dumps. With
// -check, the off-line MOAS monitor checks every UPDATE from every
// source once, as it arrives, and each alarm is logged — the §4.2
// off-line deployment, live.
//
// Two internet-scale ingest paths complement the TCP peerings, and
// each implies -check: -mrt-replay feeds an archived MRT table dump /
// update trace through the same session→RIB→alarm path (span IDs point
// back at the archive records), and -ris-live consumes a
// RIS-Live-style streaming JSON feed with a bounded channel and an
// explicit backpressure policy.
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

	"repro/internal/collector"
	"repro/internal/monitor"
	"repro/internal/mrt"
	"repro/internal/mrt/rislive"
	"repro/internal/obs"
	"repro/internal/rpki"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:1790", "address accepting BGP peerings")
		dir         = flag.String("dir", "dumps", "snapshot output directory")
		interval    = flag.Duration("interval", time.Minute, "snapshot interval")
		check       = flag.Bool("check", false, "check every update from every source with the off-line MOAS monitor and log each alarm")
		metricsAddr = flag.String("metrics-addr", "", "admin endpoint address serving /metrics, /healthz, /readyz, /debug/status and /debug/runtime")
		traceEvents = flag.Int("trace-events", 0, "flight-recorder ring size; nonzero serves /debug/trace and /debug/alarms on the admin endpoint")
		pprof       = flag.Bool("pprof", false, "mount net/http/pprof on the admin endpoint")
		mrtReplay   = flag.String("mrt-replay", "", "MRT file (raw, .gz or .bz2) to replay through the RIB and monitor at startup (implies -check)")
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

	// The collector owns the monitor, which checks every UPDATE from
	// every source once, as it arrives.
	ccfg := collector.Config{RouterID: 6447, Telemetry: reg, Trace: rec, Obs: obsRec}
	if cfg.check || cfg.mrtReplay != "" || cfg.risLive != "" {
		ccfg.Monitor = monitor.New(monitor.WithTelemetry(reg), monitor.WithObs(obsRec),
			monitor.WithTrace(rec), monitor.WithRPKI(roaStore),
			monitor.WithOnAlarm(func(a monitor.Alarm) {
				log.Printf("ALARM [%s] class=%s: %s", a.Vantage, a.Class, a.Conflict.Error())
			}))
	}
	c := collector.New(ccfg)
	defer c.Close()

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

	if cfg.mrtReplay != "" {
		f, err := os.Open(cfg.mrtReplay)
		if err != nil {
			return err
		}
		if fi, err := f.Stat(); err == nil {
			replay.SetTotalBytes(uint64(fi.Size()))
		}
		start := time.Now()
		res, err := c.ReplayMRT("mrt:"+cfg.mrtReplay, replay.CountReader(f), func(*mrt.Record) { replay.AddRecords(1) })
		f.Close()
		if err != nil {
			return fmt.Errorf("replay %s: %w", cfg.mrtReplay, err)
		}
		replay.MarkDone()
		log.Printf("moas-collector: replayed %s in %s: %d records (%d RIB prefixes, %d entries, %d updates), %d skipped, %d malformed, %d AS4-substituted",
			cfg.mrtReplay, time.Since(start).Round(time.Millisecond), res.Stats.Records, res.Stats.RIBPrefixes,
			res.Stats.RIBEntries, res.Stats.Updates, res.Stats.Skipped, res.Malformed, res.Stats.AS4Substituted)
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
