package core

import (
	"sync"

	"repro/internal/astypes"
)

// Verdict is the outcome of checking one route announcement against the
// MOAS state a checker has accumulated for the announced prefix.
type Verdict int

// Verdict values.
const (
	// VerdictUnset is the explicit zero value: no check has run. It has
	// its own string ("unset") so a Verdict that was never assigned is
	// visibly distinguishable in serialized forensics — an omitted
	// verdict must not masquerade as a legitimate classification.
	VerdictUnset Verdict = iota
	// VerdictConsistent: the announcement's effective MOAS list agrees
	// with every list previously seen for the prefix (or it is the first
	// announcement).
	VerdictConsistent
	// VerdictConflict: the effective list disagrees with the recorded
	// list; an alarm has been raised.
	VerdictConflict
	// VerdictOriginNotListed: the route's own origin AS is absent from
	// the MOAS list it carries — self-evidently bogus regardless of any
	// other announcement (§4.1: a faulty origin "will not be in p's MOAS
	// list").
	VerdictOriginNotListed
)

func (v Verdict) String() string {
	switch v {
	case VerdictUnset:
		return "unset"
	case VerdictConsistent:
		return "consistent"
	case VerdictConflict:
		return "conflict"
	case VerdictOriginNotListed:
		return "origin-not-listed"
	default:
		return "unknown"
	}
}

// Announcement is the checker's view of one received route: just the
// pieces the MOAS mechanism consults.
type Announcement struct {
	Prefix      astypes.Prefix
	Path        astypes.ASPath
	Communities []astypes.Community
	// ListAttr is the raw value of the route's dedicated MOAS-list path
	// attribute (ListAttrCode), nil when it carries none. A decodable
	// value takes precedence over Communities (see CarriedList).
	ListAttr []byte
	FromPeer astypes.ASN // ASNNone for locally originated routes
	// Span is the trace span of the message that carried the
	// announcement (0 when untraced); it flows into any Conflict so
	// alarm forensics can point back at the exact UPDATE.
	Span uint64
}

// Check is the paper's consistency check (§4.2) for one announcement,
// judged against recorded, the MOAS list recorded for its prefix (seen
// reports whether one is). The first announcement for a prefix
// establishes its list ("is simply accepted if this is the first and
// only announcement"); later announcements must carry an equal set.
// Check returns a non-nil Conflict exactly when the verdict is not
// VerdictConsistent, and, on a consistent first sight, the list to
// record. A recorded list is never replaced: the check trusts
// first-seen state and flags divergence, exactly as the simulation's
// MOAS-capable nodes do. Check keeps no state; the caller stores the
// lists, beside whatever else it keeps per prefix.
func Check(recorded List, seen bool, a Announcement) (Verdict, *Conflict, List) {
	origin, hasOrigin := a.Path.Origin()
	carried, explicit := carriedBy(a.Communities, a.ListAttr)
	// received is the announcement's effective list: the carried list,
	// else the implicit single-origin list, else (no origin, so it
	// cannot be validated) the empty list, which conflicts with
	// anything seen before. It is built only to be recorded or
	// reported, so a repeated consistent announcement allocates nothing.
	received := func() List {
		if l, ok := CarriedList(a.Communities, a.ListAttr); ok || !hasOrigin {
			return l
		}
		return ImplicitList(origin)
	}

	verdict := VerdictConflict
	switch {
	case explicit && !carried.contains(origin):
		verdict = VerdictOriginNotListed
	case !seen:
		return VerdictConsistent, nil, received()
	case explicit || !hasOrigin:
		// Without either, carried is the empty list.
		if carried.equal(recorded) {
			return VerdictConsistent, nil, List{}
		}
	case recorded == ImplicitList(origin):
		return VerdictConsistent, nil, List{}
	}
	return verdict, &Conflict{
		Prefix:   a.Prefix,
		Existing: recorded,
		Received: received(),
		Origin:   origin,
		FromPeer: a.FromPeer,
		Span:     a.Span,
		Path:     a.Path.Clone(),
		Verdict:  verdict,
	}, List{}
}

// Checker is Check over its own store of first-seen lists, one per
// prefix: the per-router MOAS-list check of the live speaker ("single
// set comparison", §4.2). It only judges: Check returns the conflict,
// and raising the alarm the paper prescribes ("an alarm signal; further
// investigation should be conducted", §4.2) — counting, classifying,
// forensics, resolution — is the caller's job.
//
// Checker is safe for concurrent use; the live speaker consults it from
// multiple session goroutines.
type Checker struct {
	mu    sync.Mutex
	lists map[astypes.Prefix]List
}

// NewChecker returns an empty checker.
func NewChecker() *Checker {
	return &Checker{lists: make(map[astypes.Prefix]List)}
}

// Check validates one announcement against the list recorded for its
// prefix, recording the announcement's list on first sight (see the
// package-level Check).
func (c *Checker) Check(a Announcement) (Verdict, *Conflict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	recorded, seen := c.lists[a.Prefix]
	verdict, conflict, first := Check(recorded, seen, a)
	if !seen && conflict == nil {
		c.lists[a.Prefix] = first
	}
	return verdict, conflict
}

// Resolver answers which origins are entitled to announce a prefix:
// the paper's DNS MOASRR lookup (§4.4), consulted once a conflict is
// detected. internal/dnsval provides the MOASRR store; the experiment
// harness injects ground truth directly.
type Resolver interface {
	ValidOrigins(prefix astypes.Prefix) (List, bool)
}
