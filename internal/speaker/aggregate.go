package speaker

import (
	"fmt"

	"repro/internal/astypes"
	"repro/internal/rib"
	"repro/internal/wire"
)

// Route aggregation (RFC 4271 §9.2.2.2), the practice behind the
// paper's footnote 1: "In the case of route aggregation, an element in
// the AS path may include a set of ASes." A configured aggregate is
// originated whenever at least one more-specific contributor is present
// in the Loc-RIB; its AS path is [self] followed by an AS_SET holding
// the union of the contributors' path ASes, and it carries the
// AGGREGATOR attribute (and ATOMIC_AGGREGATE when detail was lost).
//
// MOAS-list interaction: the aggregate is a route *originated by this
// AS*, so it carries no explicit MOAS list (receivers apply the
// implicit rule, entitling exactly this AS). The contributors'
// MOAS lists stay on the more-specific announcements, which continue to
// propagate unless the aggregate is configured summary-only.

type aggregateState struct {
	prefix      astypes.Prefix
	summaryOnly bool
	active      bool
}

// ConfigureAggregate installs an aggregate for prefix. With summaryOnly
// the contributors inside the aggregate are suppressed from
// advertisement (only the summary leaves this AS). Reconfiguration of
// the same prefix updates the flag.
func (s *Speaker) ConfigureAggregate(prefix astypes.Prefix, summaryOnly bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, agg := range s.aggregates {
		if agg.prefix == prefix {
			agg.summaryOnly = summaryOnly
			s.refreshAggregateLocked(agg)
			return nil
		}
	}
	agg := &aggregateState{prefix: prefix, summaryOnly: summaryOnly}
	s.aggregates = append(s.aggregates, agg)
	s.refreshAggregateLocked(agg)
	return nil
}

// RemoveAggregate deletes the aggregate configuration (and withdraws
// the aggregate route if it was active).
func (s *Speaker) RemoveAggregate(prefix astypes.Prefix) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, agg := range s.aggregates {
		if agg.prefix != prefix {
			continue
		}
		s.aggregates = append(s.aggregates[:i], s.aggregates[i+1:]...)
		if agg.active {
			ch := s.table.WithdrawLocal(prefix)
			s.propagateLocked(ch, 0)
		}
		return nil
	}
	return fmt.Errorf("speaker AS %s: no aggregate %s", s.cfg.AS, prefix)
}

// refreshAggregatesLocked re-evaluates every aggregate that covers the
// changed prefix.
func (s *Speaker) refreshAggregatesLocked(changed astypes.Prefix) {
	for _, agg := range s.aggregates {
		if agg.prefix.Contains(changed) && agg.prefix != changed {
			s.refreshAggregateLocked(agg)
		}
	}
}

// refreshAggregateLocked recomputes one aggregate from the Loc-RIB.
func (s *Speaker) refreshAggregateLocked(agg *aggregateState) {
	var (
		contributors int
		setMembers   []astypes.ASN
		lostDetail   bool
	)
	for _, r := range s.table.BestRoutes() {
		if r.Prefix == agg.prefix || !agg.prefix.Contains(r.Prefix) {
			continue
		}
		contributors++
		for _, seg := range r.Path.Segments {
			if seg.Type == astypes.SegSet {
				lostDetail = true
			}
			for _, asn := range seg.ASNs {
				if asn != s.cfg.AS {
					setMembers = append(setMembers, asn)
				}
			}
		}
	}
	if contributors == 0 {
		if agg.active {
			agg.active = false
			ch := s.table.WithdrawLocal(agg.prefix)
			s.propagateLocked(ch, 0)
		}
		return
	}
	setMembers = astypes.DedupASNs(setMembers)
	path := astypes.NewSeqPath(s.cfg.AS)
	if len(setMembers) > 0 {
		lostDetail = true
		path.Segments = append(path.Segments, astypes.Segment{
			Type: astypes.SegSet,
			ASNs: setMembers,
		})
	}
	route := &rib.Route{
		Prefix:          agg.prefix,
		Path:            path,
		Origin:          wire.OriginIncomplete,
		LocalPref:       rib.DefaultLocalPref,
		FromPeer:        astypes.ASNNone,
		AtomicAggregate: lostDetail,
		AggregatorAS:    s.cfg.AS,
		AggregatorID:    s.cfg.RouterID,
	}
	agg.active = true
	// route (path, set members) was built fresh above, so ownership
	// transfers to the table without a clone.
	ch := s.table.OriginateOwned(route)
	s.propagateLocked(ch, 0)
}

// suppressedLocked reports whether prefix must not be advertised
// because a summary-only aggregate covers it.
func (s *Speaker) suppressedLocked(prefix astypes.Prefix) bool {
	for _, agg := range s.aggregates {
		if agg.summaryOnly && agg.active && agg.prefix != prefix && agg.prefix.Contains(prefix) {
			return true
		}
	}
	return false
}

// AggregateInfo describes one configured aggregate and whether it is
// currently originated.
type AggregateInfo struct {
	Prefix      astypes.Prefix
	SummaryOnly bool
	Active      bool
}

// Aggregates returns the configured aggregates in configuration order.
func (s *Speaker) Aggregates() []AggregateInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]AggregateInfo, len(s.aggregates))
	for i, agg := range s.aggregates {
		out[i] = AggregateInfo{Prefix: agg.prefix, SummaryOnly: agg.summaryOnly, Active: agg.active}
	}
	return out
}
