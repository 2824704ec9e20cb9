// Command moas-speaker runs a MOAS-validating BGP speaker from a JSON
// configuration file: peering sessions, originated prefixes with their
// MOAS lists, route aggregates, a local MOASRR origin database for
// alarm resolution, and an optional admin endpoint serving the §4.2 MIB
// view at http://<metricsAddr>/debug/mib, which moas-collector reads as a
// source. It is the "router-side" deployment of the paper's mechanism.
//
// Example configuration:
//
//	{
//	  "as": 4,
//	  "routerID": 4,
//	  "validation": "drop",
//	  "listen": ["127.0.0.1:1790"],
//	  "metricsAddr": "127.0.0.1:8479",
//	  "peers": [{"addr": "127.0.0.1:1791", "as": 226}],
//	  "originate": [{"prefix": "131.179.0.0/16", "moasList": [4, 226]}],
//	  "moasrr": [{"prefix": "131.179.0.0/16", "origins": [4, 226]}]
//	}
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/daemon"
)

func main() {
	var (
		configPath = flag.String("config", "", "path to the JSON configuration (required; its metricsAddr sets the admin endpoint)")
		verbose    = flag.Bool("v", false, "log every MOAS alarm")
	)
	flag.Parse()
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "usage: moas-speaker -config speaker.json")
		os.Exit(2)
	}
	if err := run(*configPath, *verbose); err != nil {
		log.Fatal("moas-speaker: ", err)
	}
}

func run(configPath string, verbose bool) error {
	cfg, err := daemon.LoadFile(configPath)
	if err != nil {
		return err
	}
	var onAlarm func(core.Conflict)
	if verbose {
		// The hook runs under the speaker's lock: it only logs.
		onAlarm = func(c core.Conflict) { log.Println("ALARM:", c.Error()) }
	}
	d, err := daemon.Build(cfg, onAlarm)
	if err != nil {
		return err
	}
	defer d.Close()

	log.Printf("moas-speaker: AS %d up, validation=%s, %d peer(s) configured",
		cfg.AS, cfg.Validation, len(cfg.Peers))
	if addr := d.MetricsAddr(); addr != "" {
		log.Printf("moas-speaker: metrics at http://%s/metrics", addr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Println("moas-speaker: shutting down")
	return nil
}
