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

// Checker implements the per-router MOAS-list consistency check. It
// remembers, per prefix, the first MOAS list accepted and compares every
// subsequent announcement against it ("single set comparison", §4.2).
// It only judges: Check returns the conflict, and raising the alarm the
// paper prescribes ("an alarm signal; further investigation should be
// conducted", §4.2) — counting, classifying, forensics, resolution — is
// the caller's job.
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

// Check validates one announcement. The first announcement for a prefix
// establishes its MOAS list ("is simply accepted if this is the first
// and only announcement", §4.2); later announcements must carry an equal
// set. It returns a non-nil Conflict exactly when the verdict is not
// VerdictConsistent, and the previously established list is retained:
// the checker trusts first-seen state and flags divergence, exactly as
// the simulation's MOAS-capable nodes do.
func (c *Checker) Check(a Announcement) (Verdict, *Conflict) {
	origin, hasOrigin := a.Path.Origin()
	carried, explicit := CarriedList(a.Communities, a.ListAttr)
	// received is the announcement's effective list: the carried list,
	// else the implicit single-origin list, else (no origin, so it
	// cannot be validated) the empty list, which conflicts with
	// anything seen before. It is built only to be stored or reported,
	// so a repeated consistent implicit announcement allocates nothing.
	received := func() List {
		if explicit || !hasOrigin {
			return carried
		}
		return ImplicitList(origin)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	existing, seen := c.lists[a.Prefix]
	verdict := VerdictConflict
	switch {
	case !carried.Empty() && !carried.Contains(origin):
		verdict = VerdictOriginNotListed
	case !seen:
		c.lists[a.Prefix] = received()
		return VerdictConsistent, nil
	case explicit || !hasOrigin:
		if existing.Equal(carried) {
			return VerdictConsistent, nil
		}
	case existing.Len() == 1 && existing.asns[0] == origin:
		return VerdictConsistent, nil
	}
	return verdict, &Conflict{
		Prefix:   a.Prefix,
		Existing: existing,
		Received: received(),
		Origin:   origin,
		FromPeer: a.FromPeer,
		Span:     a.Span,
		Path:     a.Path.Clone(),
		Verdict:  verdict,
	}
}

// ListFor returns the MOAS list currently recorded for a prefix.
func (c *Checker) ListFor(p astypes.Prefix) (List, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.lists[p]
	return l, ok
}

// Forget drops the recorded state for a prefix, e.g. after all routes to
// it have been withdrawn.
func (c *Checker) Forget(p astypes.Prefix) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.lists, p)
}

// Reset clears all recorded lists.
func (c *Checker) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lists = make(map[astypes.Prefix]List)
}
