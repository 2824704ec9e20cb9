// Command moas-monitor is the off-line MOAS checking process of §4.2:
// it replays MRT table dumps (RouteViews/RIS archives, plain, gzip or
// bzip2; one file per vantage point), checks MOAS-list consistency
// across them, and reports the multi-origin cases and alarms. With
// -moasrr it classifies each case as valid or invalid against a MOASRR
// database file of lines
//
//	<prefix>=<asn>[,<asn>...]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/dnsval"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/rpki"
	"repro/internal/telemetry"
)

func main() {
	var (
		moasrr      = flag.String("moasrr", "", "MOASRR database file (prefix=asn,asn lines)")
		metricsAddr = flag.String("metrics-addr", "", "after processing, serve the run's admin endpoint (/metrics, /healthz, /readyz, /debug/status, /debug/runtime) until interrupted")
		verbose     = flag.Bool("v", false, "also list every alarm")
		roaFile     = flag.String("roa-file", "", "ROA file (prefix=origin[@maxlen],...) cross-validating alarms against the RPKI")
		rtrAddr     = flag.String("rtr-addr", "", "RTR-style cache server to pull ROAs from before processing")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: moas-monitor [-moasrr file] [-roa-file file | -rtr-addr host:port] dump.mrt [dump.mrt ...]")
		os.Exit(2)
	}
	if err := run(*moasrr, *metricsAddr, *roaFile, *rtrAddr, *verbose, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "moas-monitor:", err)
		os.Exit(1)
	}
}

func run(moasrrPath, metricsAddr, roaFile, rtrAddr string, verbose bool, dumps []string) error {
	reg := telemetry.NewRegistry("moas")
	telemetry.RegisterBuildInfo(reg)
	opts := []monitor.Option{monitor.WithTelemetry(reg)}
	if moasrrPath != "" {
		store, err := loadMOASRR(moasrrPath)
		if err != nil {
			return err
		}
		opts = append(opts, monitor.WithResolver(store))
	}
	roaStore, err := loadROAs(roaFile, rtrAddr, reg)
	if err != nil {
		return err
	}
	if roaStore != nil {
		opts = append(opts, monitor.WithRPKI(roaStore))
	}
	m := monitor.New(opts...)
	if err := replayDumps(m, dumps); err != nil {
		return err
	}

	cases := m.MOASCases()
	fmt.Printf("%d MOAS cases across %d dump(s)\n", len(cases), len(dumps))
	for _, c := range cases {
		status := ""
		if c.Known {
			status = " [valid]"
			if c.Invalid {
				status = " [INVALID]"
			}
		}
		origins := make([]string, len(c.Origins))
		for i, o := range c.Origins {
			origins[i] = o.String()
		}
		fmt.Printf("  %s origins {%s}%s\n", c.Prefix, strings.Join(origins, ", "), status)
	}

	alarms := m.Alarms()
	fmt.Printf("%d MOAS-list alarm(s)\n", len(alarms))
	if roaStore != nil {
		var byClass [rpki.NumClasses]int
		for _, a := range alarms {
			byClass[a.Class]++
		}
		fmt.Printf("  classes: %d %s, %d %s, %d %s\n",
			byClass[rpki.ClassBenignMOAS], rpki.ClassBenignMOAS,
			byClass[rpki.ClassLikelyMisconfig], rpki.ClassLikelyMisconfig,
			byClass[rpki.ClassLikelyHijack], rpki.ClassLikelyHijack)
	}
	for _, g := range m.AlarmSummary() {
		origins := make([]string, len(g.Origins))
		for i, o := range g.Origins {
			origins[i] = o.String()
		}
		fmt.Printf("  %s: %d alarm(s), conflicting origins {%s} via %s\n",
			g.Prefix, g.Count, strings.Join(origins, ", "), strings.Join(g.Vantages, ", "))
	}
	if verbose {
		for _, a := range alarms {
			if roaStore != nil {
				fmt.Printf("  [%s] class=%s %s\n", a.Vantage, a.Class, a.Conflict.Error())
			} else {
				fmt.Printf("  [%s] %s\n", a.Vantage, a.Conflict.Error())
			}
		}
	}
	if metricsAddr != "" {
		// Batch tool: the scrape endpoint exposes this run's counters
		// for collection, then the process waits for an interrupt.
		admin, err := obs.Serve(metricsAddr, obs.SurfaceConfig{Registry: reg})
		if err != nil {
			return err
		}
		defer admin.Close()
		log.Printf("moas-monitor: metrics at http://%s/metrics (interrupt to exit)", admin.Addr())
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		<-stop
	}
	return nil
}

// replayDumps replays each MRT file through m, naming the vantage after
// the file. Records whose bodies fail to decode are skipped and
// reported; a broken record framing aborts.
func replayDumps(m *monitor.Monitor, dumps []string) error {
	for _, path := range dumps {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		res, err := m.ReplayMRT(filepath.Base(path), f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if res.Malformed > 0 {
			log.Printf("moas-monitor: %s: skipped %d malformed record(s)", path, res.Malformed)
		}
	}
	return nil
}

// loadROAs assembles the ROA store from a file, an RTR cache, or both.
// The RTR pull is batch-shaped: connect, wait for the initial full
// sync, then disconnect — the dumps are then judged against that
// snapshot.
func loadROAs(roaFile, rtrAddr string, reg *telemetry.Registry) (*rpki.Store, error) {
	store, client, err := rpki.Open(roaFile, nil, rpki.ClientConfig{Addr: rtrAddr, Registry: reg})
	if err != nil {
		return nil, err
	}
	if client != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done := make(chan struct{})
		go func() {
			defer close(done)
			client.Run(ctx)
		}()
		for !client.Synced() {
			if ctx.Err() != nil {
				<-done
				return nil, fmt.Errorf("rtr cache %s: no full sync within 30s", rtrAddr)
			}
			time.Sleep(10 * time.Millisecond)
		}
		cancel()
		<-done
		log.Printf("moas-monitor: pulled %d ROAs from RTR cache %s", store.Len(), rtrAddr)
	}
	return store, nil
}

func loadMOASRR(path string) (*dnsval.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	store := dnsval.NewStore()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		prefixStr, asnsStr, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("%s:%d: want prefix=asn,asn", path, lineNo)
		}
		prefix, err := astypes.ParsePrefix(strings.TrimSpace(prefixStr))
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
		var origins []astypes.ASN
		for _, s := range strings.Split(asnsStr, ",") {
			asn, err := astypes.ParseASN(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
			}
			origins = append(origins, asn)
		}
		store.Register(prefix, core.NewList(origins...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return store, nil
}
