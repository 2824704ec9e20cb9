package rib

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// maxFuzzCandidates bounds the routes one input holds for a prefix.
const maxFuzzCandidates = 8

// fuzzCandidates decodes up to maxFuzzCandidates routes for one prefix,
// four bytes each: LOCAL_PREF (one of three values), hop count (1-4),
// ORIGIN code and neighbor AS. Narrow ranges make attribute ties common.
// A route whose neighbor AS repeats an earlier one's is skipped, and
// neighbor byte 0 makes the route locally originated, so every source
// holds at most one route.
func fuzzCandidates(data []byte) []*Route {
	var out []*Route
	seen := map[astypes.ASN]bool{}
	for ; len(data) >= 4 && len(out) < maxFuzzCandidates; data = data[4:] {
		peer := astypes.ASN(data[3])
		if seen[peer] {
			continue
		}
		seen[peer] = true
		hops := make([]astypes.ASN, 1+int(data[1]%4))
		for i := range hops {
			hops[i] = astypes.ASN(1000 + i)
		}
		out = append(out, &Route{
			Prefix:    prefix,
			Path:      astypes.NewSeqPath(hops...),
			Origin:    wire.OriginCode(data[2] % 3),
			LocalPref: DefaultLocalPref + 10*uint32(data[0]%3),
			FromPeer:  peer,
		})
	}
	return out
}

// referenceWinner is the decision process spelled out: sort by LOCAL_PREF
// (high first), hop count, ORIGIN code and neighbor AS, take the first,
// and keep the incumbent (-1: none) instead when it ties that winner on
// all but the neighbor AS.
func referenceWinner(cands []*Route, incumbent int) int {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := cands[order[x]], cands[order[y]]
		switch {
		case a.LocalPref != b.LocalPref:
			return a.LocalPref > b.LocalPref
		case a.Path.Hops() != b.Path.Hops():
			return a.Path.Hops() < b.Path.Hops()
		case a.Origin != b.Origin:
			return a.Origin < b.Origin
		}
		return a.FromPeer < b.FromPeer
	})
	w := order[0]
	if incumbent >= 0 {
		a, b := cands[incumbent], cands[w]
		if a.LocalPref == b.LocalPref && a.Path.Hops() == b.Path.Hops() && a.Origin == b.Origin {
			return incumbent
		}
	}
	return w
}

// FuzzSelection checks the decision process against referenceWinner.
// The Selection fold must pick the reference winner whatever order the
// candidates are offered in, with and without an incumbent. A Table,
// which offers its routes in map order, must end up holding the first
// installed route of the winning attributes (each install keeps an
// attribute-tied incumbent), and must keep it when every route is
// announced again in another order.
func FuzzSelection(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 1, 0, 9}, byte(0), int64(1), int64(2))
	f.Add([]byte{0, 1, 0, 9, 0, 1, 0, 2, 1, 3, 2, 0}, byte(9), int64(3), int64(4))
	f.Add([]byte{2, 3, 1, 5, 2, 3, 1, 6, 2, 0, 2, 7, 0, 0, 0, 0}, byte(10), int64(5), int64(6))
	f.Fuzz(func(t *testing.T, data []byte, incByte byte, seedA, seedB int64) {
		cands := fuzzCandidates(data)
		if len(cands) == 0 {
			return
		}
		incumbent := -1
		if incByte&8 != 0 {
			incumbent = int(incByte&7) % len(cands)
		}
		orders := [2][]int{
			rand.New(rand.NewSource(seedA)).Perm(len(cands)),
			rand.New(rand.NewSource(seedB)).Perm(len(cands)),
		}

		for _, inc := range []int{-1, incumbent} {
			want := referenceWinner(cands, inc)
			for _, order := range orders {
				var sel Selection
				got := -1
				for _, i := range order {
					if sel.Offer(cands[i].rank()) {
						got = i
					}
				}
				if inc >= 0 && sel.Hold(cands[inc].rank()) {
					got = inc
				}
				if got != want {
					t.Fatalf("offer order %v, incumbent %d: winner %d, want %d", order, inc, got, want)
				}
			}
		}

		tbl := NewTable()
		install := func(r *Route) Change {
			if r.FromPeer == astypes.ASNNone {
				return tbl.Originate(r)
			}
			return tbl.Update(r)
		}
		top := cands[referenceWinner(cands, -1)].rank()
		want := -1
		for _, i := range orders[0] {
			install(cands[i])
			if want < 0 && cands[i].rank().ties(top) {
				want = i
			}
		}
		if best := tbl.Best(prefix); best == nil || best.FromPeer != cands[want].FromPeer {
			t.Fatalf("install order %v: table best %+v, want the route from %v", orders[0], best, cands[want].FromPeer)
		}
		for _, i := range orders[1] {
			if ch := install(cands[i]); ch.Changed {
				t.Fatalf("announcing %v again changed the best route to %+v", cands[i].FromPeer, ch.New)
			}
		}
	})
}
