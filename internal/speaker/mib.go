package speaker

import (
	"encoding/json"
	"net/http"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/wire"
)

// This file provides the management-plane view the paper sketches in
// §4.2: "If the router is equipped to support the new BGP MIB, one
// could also run a management application to get all MOAS List through
// the MIB interface and check the MOAS List consistency." The MIB
// snapshot exposes per-peer session entries, message counters (the
// alarm count among them), and the Loc-RIB's per-prefix MOAS lists;
// ServeHTTP serves it as JSON, the daemon mounts that handler at the
// admin endpoint's /debug/mib, and cmd/moas-collector reads it as a
// source, one vantage per router.
//
// The counters themselves live on the speaker's telemetry registry
// (metrics.go), so the MIB view and the /metrics exposition read the
// same instruments.

// Counters aggregates the speaker's message and validation statistics.
// All fields are cumulative since the speaker started.
type Counters struct {
	UpdatesIn      uint64 `json:"updatesIn"`
	UpdatesOut     uint64 `json:"updatesOut"`
	WithdrawalsIn  uint64 `json:"withdrawalsIn"`
	RoutesAccepted uint64 `json:"routesAccepted"`
	RoutesRejected uint64 `json:"routesRejected"`
	LoopsDropped   uint64 `json:"loopsDropped"`
	Alarms         uint64 `json:"alarms"`
}

// PeerEntry is one row of the MIB's peer table.
type PeerEntry struct {
	AS         astypes.ASN `json:"as"`
	State      string      `json:"state"`
	Advertised int         `json:"advertisedPrefixes"`
}

// PrefixEntry is one row of the MIB's route table: the selected route
// and the MOAS list it carries (explicit or implicit).
type PrefixEntry struct {
	Prefix   string   `json:"prefix"`
	Path     string   `json:"asPath"`
	OriginAS string   `json:"originAS"`
	MOASList []string `json:"moasList"`
	Implicit bool     `json:"implicitList"`
}

// MIB is a point-in-time snapshot of the speaker's management view.
type MIB struct {
	AS       astypes.ASN   `json:"as"`
	Mode     string        `json:"validationMode"`
	Counters Counters      `json:"counters"`
	Peers    []PeerEntry   `json:"peers"`
	Routes   []PrefixEntry `json:"routes"`
}

// MIB returns the current management snapshot.
//
// Snapshot ordering (kept consistent so concurrent updates cannot show
// a peer table newer than the routes it produced):
//
//  1. the s.mu-guarded peer walk (sorted peers; each session's State is
//     internally synchronized),
//  2. the Loc-RIB route walk (rib.Table locks itself) — taken after
//     s.mu is released: propagateLocked runs under s.mu, so every route
//     visible here was propagated by a peer the walk in (1) could see,
//  3. the counter reads (telemetry atomics, each individually exact).
//
// s.mu is deliberately NOT held across steps 2–3: no lock needs it (the
// RIB locks itself, holding its read lock only while it copies the
// Loc-RIB), and formatting every route under s.mu would stall every
// session's update path for its duration.
func (s *Speaker) MIB() MIB {
	m := MIB{
		AS:   s.cfg.AS,
		Mode: s.cfg.Validation.String(),
	}
	s.mu.Lock()
	for _, p := range s.peers { // peers guarded by mu; sorted by AS
		m.Peers = append(m.Peers, PeerEntry{
			AS:         p.asn,
			State:      p.sess.State().String(),
			Advertised: len(p.advertised), // advertised guarded by mu
		})
	}
	s.mu.Unlock()

	for _, r := range s.table.BestRoutes() {
		entry := PrefixEntry{
			Prefix:   r.Prefix.String(),
			Path:     r.Path.String(),
			OriginAS: r.OriginAS().String(),
		}
		if list, has := core.CarriedList(r.Communities, wire.FindUnknownAttr(r.Unknown, core.ListAttrCode)); has {
			for _, o := range list.Origins() {
				entry.MOASList = append(entry.MOASList, o.String())
			}
		} else {
			entry.Implicit = true
			entry.MOASList = []string{r.OriginAS().String()}
		}
		m.Routes = append(m.Routes, entry)
	}

	// Counters are read after the route walk: a route that made it into
	// the snapshot has its accept/reject decision already counted, so
	// the counter view is never behind the route view.
	m.Counters = s.met.snapshot()
	return m
}

// ServeHTTP serves the MIB snapshot as JSON, so the management
// application (cmd/moas-collector, given the MIB's URL) can read it.
func (s *Speaker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.MIB()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

var _ http.Handler = (*Speaker)(nil)
