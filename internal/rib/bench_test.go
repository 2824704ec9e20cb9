package rib

import (
	"testing"

	"repro/internal/astypes"
)

// benchTable builds a table with nPrefixes prefixes, each announced by
// two peers (a best and a backup), mirroring a small collector view.
func benchTable(nPrefixes int) (*Table, []astypes.Prefix) {
	tbl := NewTable()
	prefixes := make([]astypes.Prefix, nPrefixes)
	for i := 0; i < nPrefixes; i++ {
		p := astypes.MustPrefix(uint32(0x0a000000+i)<<8, 24)
		prefixes[i] = p
		short := route(2, 2, 4)
		short.Prefix = p
		tbl.UpdateOwned(short)
		long := route(3, 3, 7, 4)
		long.Prefix = p
		tbl.UpdateOwned(long)
	}
	return tbl, prefixes
}

// BenchmarkRIBBestBaselineClone measures the old read contract: every
// Best call deep-copies the route. Kept as the in-tree baseline that
// BenchmarkRIBBest is compared against.
func BenchmarkRIBBestBaselineClone(b *testing.B) {
	tbl, prefixes := benchTable(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tbl.Best(prefixes[i%len(prefixes)]).Clone()
		if r == nil {
			b.Fatal("missing route")
		}
	}
}

// BenchmarkRIBBest measures the clone-free read path: a shared immutable
// route is returned without copying.
func BenchmarkRIBBest(b *testing.B) {
	tbl, prefixes := benchTable(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl.Best(prefixes[i%len(prefixes)]) == nil {
			b.Fatal("missing route")
		}
	}
}

// BenchmarkRIBBestParallel measures Best from concurrent readers, all
// taking the table's read lock: the shape of MIB and test reads, which
// do not hold the speaker's lock. The speaker's own reads run under its
// lock, one at a time.
func BenchmarkRIBBestParallel(b *testing.B) {
	tbl, prefixes := benchTable(64)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if tbl.Best(prefixes[i%len(prefixes)]) == nil {
				b.Fatal("missing route")
			}
			i++
		}
	})
}

// BenchmarkRIBBestRoutes measures a full Loc-RIB scan (census / status
// endpoints).
func BenchmarkRIBBestRoutes(b *testing.B) {
	tbl, _ := benchTable(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tbl.BestRoutes()) != 64 {
			b.Fatal("bad census")
		}
	}
}

// BenchmarkRIBUpdate measures the decision process on a re-announcement
// through the cloning entry point (the wire-facing path).
func BenchmarkRIBUpdate(b *testing.B) {
	tbl, prefixes := benchTable(64)
	r := route(2, 2, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Prefix = prefixes[i%len(prefixes)]
		tbl.Update(r)
	}
}

// BenchmarkRIBUpdateOwned measures the same decision process when the
// caller transfers ownership of a freshly built route, skipping the
// defensive clone.
func BenchmarkRIBUpdateOwned(b *testing.B) {
	tbl, prefixes := benchTable(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := route(2, 2, 4)
		r.Prefix = prefixes[i%len(prefixes)]
		tbl.UpdateOwned(r)
	}
}

// TestBestZeroAlloc locks in the clone-free read: a Best lookup must not
// allocate at all.
func TestBestZeroAlloc(t *testing.T) {
	tbl, prefixes := benchTable(8)
	avg := testing.AllocsPerRun(200, func() {
		if tbl.Best(prefixes[0]) == nil {
			t.Fatal("missing route")
		}
	})
	if avg != 0 {
		t.Errorf("Best allocates %v per run, want 0", avg)
	}
}

// TestRouteFromZeroAlloc: the per-peer lookup the purge and the export
// paths use is as clone-free as Best.
func TestRouteFromZeroAlloc(t *testing.T) {
	tbl, prefixes := benchTable(8)
	avg := testing.AllocsPerRun(200, func() {
		if tbl.RouteFrom(3, prefixes[0]) == nil {
			t.Fatal("missing route")
		}
	})
	if avg != 0 {
		t.Errorf("RouteFrom allocates %v per run, want 0", avg)
	}
}
