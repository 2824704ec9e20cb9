// Package mibcheck implements the management application sketched in
// §4.2: "If the router is equipped to support the new BGP MIB, one
// could also run a management application to get all MOAS List through
// the MIB interface and check the MOAS List consistency." It polls the
// MIB HTTP endpoints of any number of speakers (internal/speaker's
// ServeHTTP), collects every router's per-prefix MOAS list, and
// cross-checks them — across routers, not just across announcements at
// one router — flagging any prefix whose lists disagree.
package mibcheck

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/speaker"
)

// RouterView is one router's per-prefix MOAS state as read from its
// MIB.
type RouterView struct {
	Source string // endpoint URL or operator-assigned name
	AS     astypes.ASN
	// Lists maps prefix to the MOAS list on the router's best route.
	Lists map[astypes.Prefix]core.List
	// Implicit marks prefixes whose list came from the implicit rule.
	Implicit map[astypes.Prefix]bool
	// Alarms the router itself has raised.
	RouterAlarms int
}

// Finding is one cross-router inconsistency.
type Finding struct {
	Prefix astypes.Prefix
	// Views lists each disagreeing (source, list) pair, sorted by
	// source for determinism.
	Views []SourceList
}

// SourceList pairs a router with the list it holds.
type SourceList struct {
	Source string
	List   core.List
}

// Client polls MIB endpoints. The zero value is not usable; use New.
type Client struct {
	httpClient *http.Client
}

// Option configures a Client.
type Option interface {
	apply(*Client)
}

type httpClientOption struct{ c *http.Client }

func (o httpClientOption) apply(c *Client) { c.httpClient = o.c }

// WithHTTPClient overrides the HTTP client (tests, timeouts).
func WithHTTPClient(hc *http.Client) Option {
	return httpClientOption{c: hc}
}

// New builds a Client with a 5-second default timeout.
func New(opts ...Option) *Client {
	c := &Client{httpClient: &http.Client{Timeout: 5 * time.Second}}
	for _, o := range opts {
		o.apply(c)
	}
	return c
}

// Fetch reads one router's MIB endpoint.
func (c *Client) Fetch(url string) (*RouterView, error) {
	resp, err := c.httpClient.Get(url)
	if err != nil {
		return nil, fmt.Errorf("mibcheck: fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("mibcheck: fetch %s: status %s", url, resp.Status)
	}
	var mib speaker.MIB
	if err := json.NewDecoder(resp.Body).Decode(&mib); err != nil {
		return nil, fmt.Errorf("mibcheck: decode %s: %w", url, err)
	}
	return viewFromMIB(url, mib)
}

func viewFromMIB(source string, mib speaker.MIB) (*RouterView, error) {
	v := &RouterView{
		Source:       source,
		AS:           mib.AS,
		Lists:        make(map[astypes.Prefix]core.List, len(mib.Routes)),
		Implicit:     make(map[astypes.Prefix]bool),
		RouterAlarms: int(mib.Counters.Alarms),
	}
	for _, r := range mib.Routes {
		prefix, err := astypes.ParsePrefix(r.Prefix)
		if err != nil {
			return nil, fmt.Errorf("mibcheck: %s: %w", source, err)
		}
		origins := make([]astypes.ASN, 0, len(r.MOASList))
		for _, s := range r.MOASList {
			asn, err := astypes.ParseASN(s)
			if err != nil {
				return nil, fmt.Errorf("mibcheck: %s: %w", source, err)
			}
			origins = append(origins, asn)
		}
		v.Lists[prefix] = core.NewList(origins...)
		if r.Implicit {
			v.Implicit[prefix] = true
		}
	}
	return v, nil
}

// CrossCheck compares the per-prefix MOAS lists across router views and
// returns one finding per prefix where any two routers disagree —
// exactly the §4.2 consistency predicate, applied fleet-wide.
func CrossCheck(views []*RouterView) []Finding {
	type entry struct {
		source string
		list   core.List
	}
	byPrefix := make(map[astypes.Prefix][]entry)
	for _, v := range views {
		for prefix, list := range v.Lists {
			byPrefix[prefix] = append(byPrefix[prefix], entry{source: v.Source, list: list})
		}
	}
	var findings []Finding
	for prefix, entries := range byPrefix {
		inconsistent := false
		for i := 1; i < len(entries); i++ {
			if entries[i].list != entries[0].list {
				inconsistent = true
				break
			}
		}
		if !inconsistent {
			continue
		}
		f := Finding{Prefix: prefix}
		// Report one representative per distinct list.
		seen := make(map[core.List]bool, 2)
		for _, e := range entries {
			if seen[e.list] {
				continue
			}
			seen[e.list] = true
			f.Views = append(f.Views, SourceList{Source: e.source, List: e.list})
		}
		sort.Slice(f.Views, func(i, j int) bool { return f.Views[i].Source < f.Views[j].Source })
		findings = append(findings, f)
	}
	sort.Slice(findings, func(i, j int) bool {
		return findings[i].Prefix.Compare(findings[j].Prefix) < 0
	})
	return findings
}

// Sweep fetches every endpoint and cross-checks the results. Endpoints
// that fail to fetch are reported in errs but do not abort the sweep.
func (c *Client) Sweep(urls []string) (findings []Finding, views []*RouterView, errs []error) {
	for _, url := range urls {
		v, err := c.Fetch(url)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		views = append(views, v)
	}
	return CrossCheck(views), views, errs
}
