package simbgp

// Network-global intern tables for the compact simulation state. At
// quiescence most of an internet-scale network's nodes hold the same
// handful of AS paths and MOAS lists per prefix; interning stores each
// distinct value once and lets per-node state refer to it by a uint32
// id. Ids are content-addressed within one Network: equal content
// always yields the same id, so id equality is value equality and the
// simulation's behavior never depends on the order ids were assigned.

import (
	"encoding/binary"

	"repro/internal/astypes"
	"repro/internal/core"
)

// pathTab interns AS paths as a reverse trie: each sequence entry is
// (head, tail) where head is the newest (first) AS and tail the id of
// the rest of the path. BGP propagation grows paths by prepending, so
// the shared structure is exactly the suffix every downstream copy has
// in common, and a sender-side Prepend is one map lookup. Paths that
// are not a single AS_SEQUENCE (forged or aggregated) are stored as
// literal entries referencing a retained ASPath.
//
// Id 0 is reserved for "no path"; entry ids never reach callers before
// being interned, so adjacency slots can use 0 as "no route".
type pathTab struct {
	// head is the first AS of the entry; ASNNone marks a literal entry,
	// whose tail indexes lits instead of a parent entry.
	head []astypes.ASN
	tail []uint32
	// hops and origin cache the two path attributes the decision process
	// and census read, so neither ever materializes a path.
	hops   []uint32
	origin []astypes.ASN
	byKey  map[uint64]uint32
	lits   []astypes.ASPath
}

func newPathTab() *pathTab {
	t := &pathTab{byKey: make(map[uint64]uint32)}
	// Entry 0: the empty path.
	t.head = append(t.head, astypes.ASNNone)
	t.tail = append(t.tail, 0)
	t.hops = append(t.hops, 0)
	t.origin = append(t.origin, astypes.ASNNone)
	return t
}

// prepend returns the id of asn followed by the path id — the interned
// form of ASPath.Prepend. Steady state (the path already seen) is one
// map lookup and allocation-free.
func (t *pathTab) prepend(id uint32, asn astypes.ASN) uint32 {
	key := uint64(asn)<<32 | uint64(id)
	if got, ok := t.byKey[key]; ok {
		return got
	}
	next := uint32(len(t.head))
	t.head = append(t.head, asn)
	t.tail = append(t.tail, id)
	t.hops = append(t.hops, t.hops[id]+1)
	if id == 0 {
		t.origin = append(t.origin, asn)
	} else {
		t.origin = append(t.origin, t.origin[id])
	}
	t.byKey[key] = next
	return next
}

// internSeq interns a pure AS_SEQUENCE hop list.
func (t *pathTab) internSeq(asns []astypes.ASN) uint32 {
	id := uint32(0)
	for i := len(asns) - 1; i >= 0; i-- {
		id = t.prepend(id, asns[i])
	}
	return id
}

// intern interns an arbitrary path. Single-sequence paths (the entire
// simulation traffic) fold into the trie; anything else — forged
// multi-segment or AS_SET paths — becomes a literal entry. An empty
// path also becomes a literal so that id 0 stays "no path".
func (t *pathTab) intern(p astypes.ASPath) uint32 {
	if len(p.Segments) == 1 && p.Segments[0].Type == astypes.SegSequence && len(p.Segments[0].ASNs) > 0 {
		return t.internSeq(p.Segments[0].ASNs)
	}
	id := uint32(len(t.head))
	t.head = append(t.head, astypes.ASNNone)
	t.tail = append(t.tail, uint32(len(t.lits)))
	t.hops = append(t.hops, uint32(p.Hops()))
	origin, _ := p.Origin()
	t.origin = append(t.origin, origin)
	t.lits = append(t.lits, p.Clone())
	return id
}

// isLit reports whether id is a literal entry.
func (t *pathTab) isLit(id uint32) bool { return id != 0 && t.head[id] == astypes.ASNNone }

// contains is the interned ASPath.Contains, used for loop detection.
func (t *pathTab) contains(id uint32, asn astypes.ASN) bool {
	for id != 0 {
		if t.isLit(id) {
			return t.lits[t.tail[id]].Contains(asn)
		}
		if t.head[id] == asn {
			return true
		}
		id = t.tail[id]
	}
	return false
}

// materialize rebuilds the ASPath for id. Only cold paths (traces,
// alarms, Best) call it; the hot path reads hops/origin directly.
func (t *pathTab) materialize(id uint32) astypes.ASPath {
	if id == 0 {
		return astypes.ASPath{}
	}
	var heads []astypes.ASN
	for id != 0 && !t.isLit(id) {
		heads = append(heads, t.head[id])
		id = t.tail[id]
	}
	if id == 0 {
		if len(heads) == 0 {
			return astypes.ASPath{}
		}
		return astypes.ASPath{Segments: []astypes.Segment{{Type: astypes.SegSequence, ASNs: heads}}}
	}
	// Terminal literal: splice the collected heads in front, merging
	// into its first segment when that is a sequence, exactly as
	// repeated ASPath.Prepend would have.
	lit := t.lits[t.tail[id]].Clone()
	if len(heads) == 0 {
		return lit
	}
	if len(lit.Segments) > 0 && lit.Segments[0].Type == astypes.SegSequence {
		lit.Segments[0].ASNs = append(heads, lit.Segments[0].ASNs...)
		return lit
	}
	return astypes.ASPath{Segments: append([]astypes.Segment{{Type: astypes.SegSequence, ASNs: heads}}, lit.Segments...)}
}

// listTab interns MOAS lists. Id 0 means "none"/"not cached"; every
// interned list (including the empty list) gets an id >= 1.
type listTab struct {
	lists  []core.List // index id-1
	byList map[core.List]uint32
	// implicit caches the id of the single-origin implicit list per
	// origin AS, the common case of every unlisted announcement.
	implicit map[astypes.ASN]uint32
}

func newListTab() *listTab {
	return &listTab{byList: make(map[core.List]uint32), implicit: make(map[astypes.ASN]uint32)}
}

func (t *listTab) intern(l core.List) uint32 {
	if got, ok := t.byList[l]; ok {
		return got
	}
	id := uint32(len(t.lists) + 1)
	t.lists = append(t.lists, l)
	t.byList[l] = id
	return id
}

// implicitOf returns the id of the implicit single-origin list for
// origin; steady state is one map lookup.
func (t *listTab) implicitOf(origin astypes.ASN) uint32 {
	if got, ok := t.implicit[origin]; ok {
		return got
	}
	id := t.intern(core.ImplicitList(origin))
	t.implicit[origin] = id
	return id
}

// listOf returns the interned list (id >= 1).
func (t *listTab) listOf(id uint32) core.List { return t.lists[id-1] }

// contains reports membership without materializing anything.
func (t *listTab) contains(id uint32, asn astypes.ASN) bool {
	return t.lists[id-1].Contains(asn)
}

// commTab interns community attributes. Id 0 means the empty attribute.
// Each entry caches the decoded explicit MOAS-list id (0 when the
// attribute carries none) and the id of its MOAS-stripped form, so the
// detection and strip-in-transit paths never re-decode communities.
type commTab struct {
	sets [][]astypes.Community // index id-1
	// moas is the listTab id of the explicit MOAS list, 0 if absent.
	moas []uint32
	// strip is the commTab id after StripMOAS.
	strip   []uint32
	byKey   map[string]uint32
	scratch []byte
}

func newCommTab() *commTab {
	return &commTab{byKey: make(map[string]uint32)}
}

func (t *commTab) intern(comms []astypes.Community, lists *listTab) uint32 {
	if len(comms) == 0 {
		return 0
	}
	t.scratch = t.scratch[:0]
	for _, c := range comms {
		t.scratch = binary.LittleEndian.AppendUint32(t.scratch, uint32(c))
	}
	if got, ok := t.byKey[string(t.scratch)]; ok {
		return got
	}
	cp := make([]astypes.Community, len(comms))
	copy(cp, comms)
	id := uint32(len(t.sets) + 1)
	t.sets = append(t.sets, cp)
	moasID := uint32(0)
	if l, has := core.FromCommunities(cp); has {
		moasID = lists.intern(l)
	}
	t.moas = append(t.moas, moasID)
	t.strip = append(t.strip, 0xffffffff) // lazily computed
	t.byKey[string(t.scratch)] = id
	return id
}

// setOf returns the canonical stored slice; callers must treat it as
// read-only (Best clones before handing it out).
func (t *commTab) setOf(id uint32) []astypes.Community {
	if id == 0 {
		return nil
	}
	return t.sets[id-1]
}

// moasOf returns the explicit MOAS-list id of the attribute (0 = none).
func (t *commTab) moasOf(id uint32) uint32 {
	if id == 0 {
		return 0
	}
	return t.moas[id-1]
}

// stripOf returns the id of the attribute with MOAS-list communities
// removed, computing and caching it on first use.
func (t *commTab) stripOf(id uint32, lists *listTab) uint32 {
	if id == 0 {
		return 0
	}
	if s := t.strip[id-1]; s != 0xffffffff {
		return s
	}
	s := t.intern(core.StripMOAS(t.sets[id-1]), lists)
	t.strip[id-1] = s
	return s
}

// effectiveID resolves the interned effective MOAS list of a route:
// the explicit list when present, else the implicit single-origin list
// (§4.2 footnote 3). Returns 0 when the route has neither a list nor
// an origin — the EffectiveList error case.
func effectiveID(comms *commTab, lists *listTab, commID uint32, origin astypes.ASN) uint32 {
	if m := comms.moasOf(commID); m != 0 {
		return m
	}
	if origin == astypes.ASNNone {
		return 0
	}
	return lists.implicitOf(origin)
}
