package main

import (
	"math/rand"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/dnsval"
	"repro/internal/rpki"
	"repro/internal/wire"
)

// AS numbers of the benchmark's own speakers. Origins, transit hops and
// forgers are drawn from disjoint 2-octet ranges so a sink can tell a
// forged origin from a legitimate one by range alone.
const (
	validatorAS astypes.ASN = 100
	peerAAS     astypes.ASN = 201
	peerBAS     astypes.ASN = 202
	sinkAS      astypes.ASN = 300

	originBase  = 1000  // origins: [1000, 20000)
	originSpan  = 19000 //
	transitBase = 20000 // fixed transit hops: [20000, 22000)
	transitSpan = 2000  //
	variantBase = 24000 // the hop a path change rewrites: [24000, 56000)
	variantSpan = 32000 //
	forgerBase  = 60000 // forged origins: [60000, 61000)
	forgerSpan  = 1000  //

	groupSize = 8 // prefixes sharing one attribute set, and NLRI per load UPDATE
)

var peerAS = [2]astypes.ASN{peerAAS, peerBAS}

// wireGroup is one attribute set shared by groupSize consecutive
// prefixes: what a real table looks like (an AS originates several
// prefixes over one path) and what lets the load phase pack 8 NLRI per
// UPDATE.
type wireGroup struct {
	home   uint8 // index into peerAS of the peer that announces it (the primary, for dual groups)
	dual   bool  // legitimately dual-homed: the other peer announces origin2 with the same explicit MOAS list
	record bool  // has a MOASRR record and ROAs
	origin astypes.ASN
	// origin2 is the second entitled origin of a dual group.
	origin2 astypes.ASN
	// mids are the transit hops between the peer and the origin, after
	// the variant hop; the primary path is peer, variant, mids…, origin.
	mids  []astypes.ASN
	comms []astypes.Community // includes the MOAS-list communities of a dual group
}

// wireCorpus is everything the wire workloads send and everything the
// oracle needs to judge what comes back, generated from the seed alone.
type wireCorpus struct {
	prefixes []astypes.Prefix
	groups   []wireGroup
	index    map[astypes.Prefix]int32
	// byHome lists, per peer, the prefixes it is the (primary) announcer
	// of, in a seeded order the op streams walk.
	byHome [2][]int32
	// plain and withRecord split the non-dual prefixes by whether a
	// MOASRR record exists, in seeded order: the forged-origin targets.
	plain, withRecord []int32
	records           int
}

func (c *wireCorpus) group(i int32) *wireGroup { return &c.groups[i/groupSize] }

// nonOverlappingPrefixes lays n prefixes of mixed length end to end
// through unicast space, so exact-match and covering lookups agree and
// the oracle need not model more-specifics. The returned order is
// shuffled.
func nonOverlappingPrefixes(rng *rand.Rand, n int) []astypes.Prefix {
	out := make([]astypes.Prefix, 0, n)
	cursor := uint64(1) << 24 // 1.0.0.0
	for len(out) < n {
		var length uint8
		switch r := rng.Intn(100); {
		case r < 70:
			length = 24
		case r < 82:
			length = 23
		case r < 90:
			length = 22
		case r < 96:
			length = 20
		case r < 99:
			length = 19
		default:
			length = 16
		}
		size := uint64(1) << (32 - length)
		cursor = (cursor + size - 1) &^ (size - 1)
		if cursor>>24 == 127 { // skip loopback
			cursor = 128 << 24
		}
		out = append(out, astypes.MustPrefix(uint32(cursor), length))
		cursor += size
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// newWireCorpus generates an n-prefix table (n a multiple of groupSize):
// paths of 3–6 hops, 0–3 ordinary communities, 5% of groups dual-homed
// with explicit MOAS lists, MOASRR records and ROAs for 25%.
func newWireCorpus(seed int64, n int) *wireCorpus {
	rng := rand.New(rand.NewSource(seed))
	n -= n % groupSize
	c := &wireCorpus{
		prefixes: nonOverlappingPrefixes(rng, n),
		groups:   make([]wireGroup, n/groupSize),
		index:    make(map[astypes.Prefix]int32, n),
	}
	for i, p := range c.prefixes {
		c.index[p] = int32(i)
	}
	for gi := range c.groups {
		g := &c.groups[gi]
		g.home = uint8(rng.Intn(2))
		g.dual = rng.Intn(100) < 5
		g.record = rng.Intn(100) < 25
		g.origin = astypes.ASN(originBase + rng.Intn(originSpan))
		hops := 3 + rng.Intn(4)
		if g.dual {
			// The primary path is always strictly shorter than the
			// secondary (3 hops against 5), so the decision process
			// picks it whatever order the two arrive in.
			hops = 3
			for g.origin2 == 0 || g.origin2 == g.origin {
				g.origin2 = astypes.ASN(originBase + rng.Intn(originSpan))
			}
		}
		g.mids = make([]astypes.ASN, hops-3)
		for k := range g.mids {
			g.mids[k] = astypes.ASN(transitBase + rng.Intn(transitSpan))
		}
		for k := rng.Intn(4); k > 0; k-- {
			g.comms = append(g.comms, astypes.NewCommunity(
				astypes.ASN(transitBase+rng.Intn(transitSpan)), uint16(rng.Intn(1000))))
		}
		if g.dual {
			g.comms = append(g.comms, core.NewList(g.origin, g.origin2).Communities()...)
		}
		if g.record {
			c.records += groupSize
		}
		for k := 0; k < groupSize; k++ {
			i := int32(gi*groupSize + k)
			c.byHome[g.home] = append(c.byHome[g.home], i)
			switch {
			case g.dual:
			case g.record:
				c.withRecord = append(c.withRecord, i)
			default:
				c.plain = append(c.plain, i)
			}
		}
	}
	for h := range c.byHome {
		s := c.byHome[h]
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	}
	rng.Shuffle(len(c.plain), func(i, j int) { c.plain[i], c.plain[j] = c.plain[j], c.plain[i] })
	rng.Shuffle(len(c.withRecord), func(i, j int) { c.withRecord[i], c.withRecord[j] = c.withRecord[j], c.withRecord[i] })
	return c
}

// entitled is the MOAS list the group's prefixes legitimately carry.
func (g *wireGroup) entitled() core.List {
	if g.dual {
		return core.NewList(g.origin, g.origin2)
	}
	return core.NewList(g.origin)
}

// stores builds the MOASRR database and ROA store the validator boots
// with: a record and exact-length ROAs for every group flagged record.
func (c *wireCorpus) stores() (*dnsval.Store, *rpki.Store) {
	store := dnsval.NewStore()
	roas := rpki.NewStore()
	for gi := range c.groups {
		g := &c.groups[gi]
		if !g.record {
			continue
		}
		list := g.entitled()
		for k := 0; k < groupSize; k++ {
			p := c.prefixes[gi*groupSize+k]
			store.Register(p, list)
			for _, o := range list.Origins() {
				roas.Add(rpki.ROA{Prefix: p, Origin: o})
			}
		}
	}
	return store, roas
}

// variantHop is the AS a path change rewrites: variant v of a prefix's
// path differs from variant v-1 in this one hop and nothing else, so
// the hop count — and with it the decision process — never moves.
func variantHop(v uint16) astypes.ASN {
	return astypes.ASN(variantBase + int(v)%variantSpan)
}

// updateScratch is one reusable UPDATE: session.SendUpdates encodes
// before it returns, so a sender refills the same few structs forever.
type updateScratch struct {
	u    wire.Update
	asns [8]astypes.ASN
	nlri [groupSize]astypes.Prefix
	seg  [1]astypes.Segment
}

func (s *updateScratch) reset() *wire.Update {
	s.u = wire.Update{}
	return &s.u
}

func (s *updateScratch) setPath(asns ...astypes.ASN) {
	n := copy(s.asns[:], asns)
	s.seg[0] = astypes.Segment{Type: astypes.SegSequence, ASNs: s.asns[:n]}
	s.u.Attrs.ASPath = astypes.ASPath{Segments: s.seg[:]}
	s.u.Attrs.HasOrigin = true
	s.u.Attrs.Origin = wire.OriginIGP
	s.u.Attrs.HasNextHop = true
	s.u.Attrs.NextHop = 0x0a000001
}

// announce fills s with the primary announcement of the given prefixes
// of one group at path variant v.
func (c *wireCorpus) announce(s *updateScratch, g *wireGroup, v uint16, prefixes ...astypes.Prefix) *wire.Update {
	u := s.reset()
	path := append(append(s.asns[:0], peerAS[g.home], variantHop(v)), g.mids...)
	s.setPath(append(path, g.origin)...)
	u.Attrs.Communities = g.comms
	u.NLRI = s.nlri[:copy(s.nlri[:], prefixes)]
	return u
}

// announceSecondary fills s with the other peer's announcement of a
// dual group: origin2 over a 5-hop path, same explicit MOAS list.
func (c *wireCorpus) announceSecondary(s *updateScratch, g *wireGroup, prefixes ...astypes.Prefix) *wire.Update {
	u := s.reset()
	other := peerAS[1-g.home]
	s.setPath(other, transitBase, transitBase+1, transitBase+2, g.origin2)
	u.Attrs.Communities = g.comms
	u.NLRI = s.nlri[:copy(s.nlri[:], prefixes)]
	return u
}

// forged fills s with a false origination of one prefix by peer from:
// a 3-hop path ending in a forger AS, no MOAS list (so the implicit
// single-origin list conflicts with whatever the table established).
func (c *wireCorpus) forged(s *updateScratch, from uint8, forger astypes.ASN, prefix astypes.Prefix) *wire.Update {
	u := s.reset()
	s.setPath(peerAS[from], transitBase+3, forger)
	u.NLRI = s.nlri[:copy(s.nlri[:], []astypes.Prefix{prefix})]
	return u
}

func (c *wireCorpus) withdraw(s *updateScratch, prefix astypes.Prefix) *wire.Update {
	u := s.reset()
	s.nlri[0] = prefix
	u.Withdrawn = s.nlri[:1]
	return u
}

// opKind is what one generated operation asks of the validator and
// therefore what the oracle expects back.
type opKind uint8

const (
	opChange opKind = iota // re-announce with the next path variant: accepted, one export
	opFlap                 // withdraw then re-announce: one withdrawal and one export
	opDup                  // re-send the current route: accepted, no export
	opForged               // false origin: alarm, rejected, no export
)

// wireOp is one operation of a seeded stream.
type wireOp struct {
	prefix int32
	kind   opKind
	forger astypes.ASN // opForged only
}

// opMix is a churn mix in parts per thousand; the remainder is opChange.
type opMix struct{ flap, dup, forged int }

// churnStream is the deterministic op sequence of one source: it walks
// the peer's own prefixes in their seeded order (so no prefix recurs
// within len(byHome) ops, far beyond any window) and draws each op's
// kind from the mix. Dual prefixes only ever get opChange or opDup from
// their primary, and forged origins only target prefixes without a
// MOASRR record: detection, no resolution.
type churnStream struct {
	c    *wireCorpus
	rng  *rand.Rand
	home uint8
	mix  opMix
	pos  int
}

func (c *wireCorpus) churnStream(seed int64, home uint8, mix opMix) *churnStream {
	return &churnStream{c: c, rng: rand.New(rand.NewSource(seed<<8 | int64(home+1))), home: home, mix: mix}
}

func (s *churnStream) next() wireOp {
	own := s.c.byHome[s.home]
	i := own[s.pos%len(own)]
	s.pos++
	g := s.c.group(i)
	op := wireOp{prefix: i, kind: opChange}
	switch r := s.rng.Intn(1000); {
	case r < s.mix.forged:
		if !g.dual && !g.record {
			op.kind = opForged
			op.forger = astypes.ASN(forgerBase + s.rng.Intn(forgerSpan))
		}
	case r < s.mix.forged+s.mix.dup:
		op.kind = opDup
	case r < s.mix.forged+s.mix.dup+s.mix.flap:
		if !g.dual {
			op.kind = opFlap
		}
	}
	return op
}
