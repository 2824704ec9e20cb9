package rib

import (
	"math/rand"
	"testing"

	"repro/internal/astypes"
)

// TestRandomOpSequenceInvariants drives the table with random
// update/withdraw/originate sequences and checks after every step that
// the selected best route is attribute-optimal: no held candidate
// strictly beats it, and the Loc-RIB is empty exactly when no
// candidates are held.
func TestRandomOpSequenceInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	prefixes := []astypes.Prefix{
		astypes.MustPrefix(0x0a000000, 8),
		astypes.MustPrefix(0x14000000, 8),
		astypes.MustPrefix(0x1e000000, 8),
	}
	peers := []astypes.ASN{2, 3, 5, 7, 11}

	tbl := NewTable()
	// held mirrors what the table should contain: held[peer][prefix].
	held := make(map[astypes.ASN]map[astypes.Prefix]*Route)
	heldSet := func(peer astypes.ASN, prefix astypes.Prefix, r *Route) {
		if held[peer] == nil {
			held[peer] = make(map[astypes.Prefix]*Route)
		}
		if r == nil {
			delete(held[peer], prefix)
		} else {
			held[peer][prefix] = r
		}
	}

	randomRoute := func(peer astypes.ASN, prefix astypes.Prefix) *Route {
		hops := make([]astypes.ASN, rng.Intn(4)+1)
		hops[0] = peer
		for i := 1; i < len(hops); i++ {
			hops[i] = astypes.ASN(rng.Intn(900) + 100)
		}
		return &Route{
			Prefix:    prefix,
			Path:      astypes.NewSeqPath(hops...),
			LocalPref: DefaultLocalPref + uint32(rng.Intn(3))*10,
			FromPeer:  peer,
		}
	}

	for step := 0; step < 3000; step++ {
		prefix := prefixes[rng.Intn(len(prefixes))]
		peer := peers[rng.Intn(len(peers))]
		switch rng.Intn(3) {
		case 0, 1: // update twice as likely as withdraw
			r := randomRoute(peer, prefix)
			tbl.Update(r)
			heldSet(peer, prefix, r)
		case 2:
			tbl.Withdraw(peer, prefix)
			heldSet(peer, prefix, nil)
		}

		// Invariants per prefix.
		for _, p := range prefixes {
			var candidates []*Route
			for _, byPrefix := range held {
				if r, ok := byPrefix[p]; ok {
					candidates = append(candidates, r)
				}
			}
			best := tbl.Best(p)
			if len(candidates) == 0 {
				if best != nil {
					t.Fatalf("step %d: best exists with no candidates: %+v", step, best)
				}
				continue
			}
			if best == nil {
				t.Fatalf("step %d: candidates exist but no best for %s", step, p)
			}
			for _, c := range candidates {
				if cr, br := c.rank(), best.rank(); cr.Better(br) && !cr.ties(br) {
					t.Fatalf("step %d: candidate %+v strictly beats best %+v", step, c, best)
				}
			}
			// The best must be one of the candidates (same source).
			found := false
			for _, c := range candidates {
				if c.FromPeer == best.FromPeer {
					found = true
				}
			}
			if !found {
				t.Fatalf("step %d: best from unknown source %v", step, best.FromPeer)
			}
		}
	}
}

// TestPreferOldestStability: re-announcing attribute-equal routes from
// other peers must never move the selection.
func TestPreferOldestStability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := NewTable()
	p := astypes.MustPrefix(0x0a000000, 8)
	first := &Route{
		Prefix:    p,
		Path:      astypes.NewSeqPath(50, 4),
		LocalPref: DefaultLocalPref,
		FromPeer:  50,
	}
	tbl.Update(first)
	for i := 0; i < 500; i++ {
		peer := astypes.ASN(rng.Intn(40) + 2)
		tbl.Update(&Route{
			Prefix:    p,
			Path:      astypes.NewSeqPath(peer, astypes.ASN(rng.Intn(900)+100)),
			LocalPref: DefaultLocalPref,
			FromPeer:  peer,
		})
		if best := tbl.Best(p); best.FromPeer != 50 {
			t.Fatalf("iteration %d: tied route from %v displaced the incumbent", i, best.FromPeer)
		}
	}
}
