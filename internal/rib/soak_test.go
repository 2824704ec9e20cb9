package rib

import (
	"sync"
	"testing"

	"repro/internal/astypes"
)

// TestTableConcurrentSoak hammers the table from concurrent announcers,
// withdrawers, and readers. It asserts nothing beyond internal
// consistency of what readers observe — its job is to give the race
// detector (make race) a dense interleaving over every accessor,
// including the clone-free shared-route reads.
func TestTableConcurrentSoak(t *testing.T) {
	const (
		writers    = 4
		readers    = 4
		iterations = 400
		nPrefixes  = 64
	)
	tbl := NewTable()
	prefixes := make([]astypes.Prefix, nPrefixes)
	for i := range prefixes {
		prefixes[i] = astypes.MustPrefix(uint32(0x0a000000+i)<<8, 24)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(peer astypes.ASN) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				p := prefixes[i%nPrefixes]
				switch i % 4 {
				case 0, 1:
					r := route(peer, peer, astypes.ASN(4+i%3), 4)
					r.Prefix = p
					tbl.UpdateOwned(r)
				case 2:
					tbl.Withdraw(peer, p)
				case 3:
					tbl.DropPeer(peer)
				}
			}
		}(astypes.ASN(100 + w))
	}
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				p := prefixes[(seed+i)%nPrefixes]
				if r := tbl.Best(p); r != nil {
					// Walk the shared route's slices so the race
					// detector sees reads overlapping writer installs.
					if r.Prefix != p {
						t.Errorf("Best(%v) returned route for %v", p, r.Prefix)
					}
					_ = r.Path.Hops()
					_ = r.OriginAS()
				}
				switch i % 3 {
				case 0:
					for _, r := range tbl.BestRoutes() {
						_ = r.Path.Hops()
					}
				case 1:
					for _, r := range tbl.RoutesFrom(astypes.ASN(100 + seed%writers)) {
						_ = r.Path.Hops()
					}
				case 2:
					_ = tbl.Len()
				}
			}
		}(rdr)
	}
	wg.Wait()

	// Quiesced state must be internally consistent: every best route's
	// prefix keys its own entry.
	for _, r := range tbl.BestRoutes() {
		if tbl.Best(r.Prefix) != r {
			t.Errorf("best route for %v not reachable via Best", r.Prefix)
		}
	}
}
