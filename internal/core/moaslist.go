// Package core implements the paper's primary contribution: the MOAS
// list mechanism for detecting invalid Multiple Origin AS routing
// announcements (Zhao et al., DSN 2002, §4).
//
// The mechanism has three parts, all provided here:
//
//   - A MOAS list — the set of ASes entitled to originate a prefix —
//     encoded into the BGP community attribute as one (ASN : MLVal)
//     community per entitled origin (§4.2).
//   - The implicit-list rule: a route carrying no MOAS list is treated
//     as if it carried a list containing exactly its origin AS (§4.2
//     footnote 3).
//   - The consistency check: all MOAS lists observed for a prefix must
//     be equal as sets; any inconsistency raises an alarm (§4.2), which
//     a Checker records and which policy may translate into dropping the
//     conflicting route.
//
// The package is deliberately independent of any particular BGP engine:
// both the live speaker (internal/speaker) and the event-driven
// simulator (internal/simbgp) plug into the same Checker.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/astypes"
)

// MLVal is the reserved low-16-bit community value that marks a
// community as a MOAS-list member (§4.2 "MOAS List Value"). The draft
// referenced by the paper reserves one of the 2^16 values; we use 0xFFDE
// ("MOAS DEtection"), which lies outside the well-known community block.
const MLVal uint16 = 0xffde

// List is a MOAS list: the set of origin ASes entitled to originate a
// prefix. The zero value is the empty list, which is distinct from an
// absent list — use of the implicit-list rule is the caller's choice via
// ImplicitList.
//
// A List is a small immutable value kept in one canonical form, so ==
// is the paper's consistency predicate: "the same set of ASes listed in
// all the MOAS Lists. The order in the list may differ, but the set of
// ASes included in each route announcement must be identical" (§4.2).
// Nearly every list has one or two members (§3: 96 % of MOAS cases have
// two origins), so those are held inline and the list allocates
// nothing; a longer one is packed into a string.
type List struct {
	// inline holds the members of a list of at most two, ascending,
	// and is zero beyond them and in a longer list.
	inline [2]astypes.ASN
	// rest is lenTag[:n] for a list of n <= 2 members, and otherwise
	// every member as 4 big-endian octets, ascending: at least 12
	// octets, so its length alone tells the two forms apart.
	rest string
}

// lenTag supplies rest for the inline form; slicing a constant
// allocates nothing.
const lenTag = "\x00\x00"

// NewList builds a canonical (sorted, deduplicated) list from the given
// origins. The argument slice is not retained.
func NewList(origins ...astypes.ASN) List {
	switch len(origins) {
	case 0:
		return List{}
	case 1:
		return ImplicitList(origins[0])
	case 2:
		a, b := origins[0], origins[1]
		if a == b {
			return ImplicitList(a)
		}
		if a > b {
			a, b = b, a
		}
		return List{inline: [2]astypes.ASN{a, b}, rest: lenTag}
	}
	asns := astypes.DedupASNs(slices.Clone(origins))
	if len(asns) <= 2 {
		return NewList(asns...)
	}
	var b strings.Builder
	b.Grow(4 * len(asns))
	var member [4]byte
	for _, a := range asns {
		binary.BigEndian.PutUint32(member[:], uint32(a))
		b.Write(member[:])
	}
	return List{rest: b.String()}
}

// ImplicitList is the list a route without MOAS communities is treated
// as carrying: just its own origin AS (§4.2, footnote 3).
func ImplicitList(origin astypes.ASN) List {
	return List{inline: [2]astypes.ASN{origin}, rest: lenTag[:1]}
}

// Empty reports whether the list has no members.
func (l List) Empty() bool { return l.rest == "" }

// Len returns the number of entitled origins.
func (l List) Len() int {
	if len(l.rest) <= len(lenTag) {
		return len(l.rest)
	}
	return len(l.rest) / 4
}

// at returns the i-th member in ascending order.
func (l List) at(i int) astypes.ASN {
	if len(l.rest) <= len(lenTag) {
		return l.inline[i]
	}
	m := l.rest[4*i:]
	return astypes.ASN(uint32(m[0])<<24 | uint32(m[1])<<16 | uint32(m[2])<<8 | uint32(m[3]))
}

// Origins returns a copy of the member set in ascending order.
func (l List) Origins() []astypes.ASN {
	if l.Empty() {
		return nil
	}
	out := make([]astypes.ASN, l.Len())
	for i := range out {
		out[i] = l.at(i)
	}
	return out
}

// Contains reports whether asn is an entitled origin.
func (l List) Contains(asn astypes.ASN) bool {
	for i := 0; i < l.Len(); i++ {
		switch a := l.at(i); {
		case a == asn:
			return true
		case a > asn:
			return false
		}
	}
	return false
}

// WithOrigin returns a new list additionally containing asn; used to
// model an attacker forging a superset list (§4.1: "Although AS 3 could
// attach its own MOAS list that includes AS 1, AS 2, and AS 3...").
func (l List) WithOrigin(asn astypes.ASN) List {
	return NewList(append(l.Origins(), asn)...)
}

// Communities encodes the list into its community-attribute form: one
// (member : MLVal) community per entitled origin, in ascending member
// order (Fig 7).
func (l List) Communities() []astypes.Community {
	if l.Empty() {
		return nil
	}
	out := make([]astypes.Community, l.Len())
	for i := range out {
		out[i] = astypes.NewCommunity(l.at(i), MLVal)
	}
	return out
}

// String renders the list as "{1, 2}" for logs and alarms.
func (l List) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < l.Len(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(l.at(i).String())
	}
	b.WriteByte('}')
	return b.String()
}

// FromCommunities extracts the MOAS list carried by a route's community
// attribute, ignoring non-MOAS communities. hasList reports whether any
// MOAS-list community was present at all, so callers can distinguish an
// absent list (apply the implicit rule) from an empty attribute.
func FromCommunities(comms []astypes.Community) (l List, hasList bool) {
	var buf [8]astypes.ASN // a short list is gathered on the stack
	members := buf[:0]
	for _, c := range comms {
		if c.Value() == MLVal {
			members = append(members, c.ASN())
		}
	}
	if len(members) == 0 {
		return List{}, false
	}
	return NewList(members...), true
}

// EffectiveList resolves the list a route is treated as carrying: the
// explicit list if one is present, otherwise the implicit single-origin
// list (§4.2 footnote 3). A route whose path has no origin (empty
// AS_PATH) yields an empty list and an error.
func EffectiveList(comms []astypes.Community, path astypes.ASPath) (List, error) {
	if l, ok := FromCommunities(comms); ok {
		return l, nil
	}
	origin, ok := path.Origin()
	if !ok {
		return List{}, errors.New("route has neither MOAS list nor origin AS")
	}
	return ImplicitList(origin), nil
}

// StripMOAS removes MOAS-list communities from a community attribute,
// modelling routers that drop optional transitive communities (§4.3).
// Non-MOAS communities are preserved.
func StripMOAS(comms []astypes.Community) []astypes.Community {
	var out []astypes.Community
	for _, c := range comms {
		if c.Value() != MLVal {
			out = append(out, c)
		}
	}
	return out
}

// Conflict describes one detected MOAS-list inconsistency for a prefix.
type Conflict struct {
	Prefix   astypes.Prefix
	Existing List // the list previously accepted for the prefix
	Received List // the inconsistent list on the incoming route
	Origin   astypes.ASN
	FromPeer astypes.ASN // ASNNone when locally originated/unknown
	// Path is the offending route's AS path (owned by the Conflict) and
	// Span the trace span of the UPDATE that carried it; together with
	// Verdict they feed the forensic alarm bundle.
	Path    astypes.ASPath
	Span    uint64
	Verdict Verdict
}

// Error renders a human-readable description; Conflict implements error
// so policy layers can wrap it.
func (c *Conflict) Error() string {
	return fmt.Sprintf("MOAS conflict for %s: origin %s announced list %s, expected %s (learned from AS %s)",
		c.Prefix, c.Origin, c.Received, c.Existing, c.FromPeer)
}
