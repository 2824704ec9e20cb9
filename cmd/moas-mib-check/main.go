// Command moas-mib-check is the §4.2 management application: it polls
// the MIB endpoints (/debug/mib on each admin endpoint) of a fleet of
// moas-speaker instances, gathers
// every router's per-prefix MOAS lists, and cross-checks them. A prefix
// whose lists disagree across routers is a MOAS conflict somewhere in
// the network — even when every individual router's local view is
// consistent.
//
// Usage:
//
//	moas-mib-check http://r1:8479/debug/mib http://r2:8479/debug/mib ...
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/mibcheck"
)

func main() {
	var (
		timeout = flag.Duration("timeout", 5*time.Second, "per-endpoint HTTP timeout")
		watch   = flag.Duration("watch", 0, "re-poll interval (0 = run once)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: moas-mib-check [-watch 30s] http://<metricsAddr>/debug/mib ...")
		os.Exit(2)
	}
	client := mibcheck.New(mibcheck.WithHTTPClient(&http.Client{Timeout: *timeout}))
	for {
		failed := sweepOnce(client, flag.Args())
		if *watch == 0 {
			if failed {
				os.Exit(1)
			}
			return
		}
		time.Sleep(*watch)
	}
}

func sweepOnce(client *mibcheck.Client, urls []string) (foundProblems bool) {
	findings, views, errs := client.Sweep(urls)
	fmt.Printf("%s polled %d endpoint(s): %d reachable, %d finding(s)\n",
		time.Now().Format(time.RFC3339), len(urls), len(views), len(findings))
	for _, err := range errs {
		fmt.Println("  fetch error:", err)
	}
	for _, v := range views {
		if v.RouterAlarms > 0 {
			fmt.Printf("  router AS %s (%s) reports %d local alarm(s)\n", v.AS, v.Source, v.RouterAlarms)
			foundProblems = true
		}
	}
	for _, f := range findings {
		fmt.Printf("  CONFLICT %s:\n", f.Prefix)
		for _, view := range f.Views {
			fmt.Printf("    %-40s MOAS list %s\n", view.Source, view.List)
		}
		foundProblems = true
	}
	return foundProblems || len(errs) > 0
}
