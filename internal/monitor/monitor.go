// Package monitor implements the paper's off-line deployment path
// (§4.2): "one could deploy the MOAS List checking quickly in the
// operational Internet via an off-line monitoring process, which
// periodically downloads the BGP routing messages and checks the MOAS
// List consistency from multiple peers."
//
// The Monitor ingests routing-table snapshots (or live UPDATE feeds)
// from any number of vantage points, maintains the per-prefix MOAS view
// across all of them, and emits alarms on inconsistency — without
// touching any router. It runs the same core.Check the in-band speaker
// does, fed from collected data instead of live sessions.
package monitor

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/routegen"
	"repro/internal/rpki"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Alarm is one monitor finding: a prefix whose announcements across the
// monitored peers carry inconsistent MOAS lists (or an origin outside
// its own list).
type Alarm struct {
	Conflict core.Conflict
	// Vantage identifies the feed that contributed the conflicting
	// announcement.
	Vantage string
	// Class is the RPKI/ROV cross-validated severity (rpki.Classify);
	// without a configured store it degrades to the MOAS-provenance
	// classes (benign-moas / likely-misconfig).
	Class rpki.Class
}

// Monitor checks MOAS-list consistency across vantage-point feeds. It
// is safe for concurrent use (feeds may be ingested in parallel).
type Monitor struct {
	mu sync.Mutex
	// prefixes holds each prefix's record across all vantages.
	prefixes map[astypes.Prefix]record
	// moas holds the state of each prefix whose record is flagged
	// spilled: the few that do not fit a record.
	moas   map[astypes.Prefix]moasRecord
	alarms []Alarm
	// seq mints one span per announced prefix observed without a
	// stamp, so an alarm bundle points back at the exact entry that
	// triggered it.
	seq uint64
	// resolver, if set, classifies alarms into valid/invalid.
	resolver core.Resolver
	// rpki, if set, is the validated ROA store alarms are cross-checked
	// against; nil validates to NotFound (no ROV signal).
	rpki *rpki.Store
	// met counts monitor state on the WithTelemetry registry, or on a
	// private one.
	met *monitorMetrics
	// rec, if set, records validate events and forensic alarm bundles
	// on a flight recorder (WithTrace).
	rec *trace.Recorder
	// obs, if set, records per-stage detection latency for stamped
	// ingest paths (WithObs): the validate crossing per checked entry
	// and the cumulative ingest → alarm latency per conflict.
	obs *obs.Recorder
	// onAlarm, if set, is called once per alarm (WithOnAlarm).
	onAlarm func(Alarm)
}

// record is the monitor's state for one prefix, across all vantages,
// in the shape nearly every prefix has: at most one visible origin, and
// at most the implicit list of that origin recorded. It holds no
// pointer, so the map of records costs 16 bytes a prefix and the
// collector never scans it. A prefix in any other shape — two or more
// visible origins (a MOAS case), or a first-seen list other than
// {origin} — is flagged spilled, and its state lives in Monitor.moas
// until it is withdrawn.
type record struct {
	origin astypes.ASN // the visible origin, when flags&visible
	flags  uint8
}

// record flags.
const (
	visible uint8 = 1 << iota // origin is visible
	listed                    // the first-seen list {origin} is recorded
	spilled                   // the state is in Monitor.moas
)

// recorded returns the first-seen list of a record that is not
// spilled, and whether one is recorded.
func (r record) recorded() (core.List, bool) {
	if r.flags&listed == 0 {
		return core.List{}, false
	}
	return core.ImplicitList(r.origin), true
}

// with returns r after recording first as the prefix's list (when keep)
// and origin as visible (when hasOrigin); ok is false when the result
// no longer fits a record.
func (r record) with(keep bool, first core.List, origin astypes.ASN, hasOrigin bool) (next record, ok bool) {
	if hasOrigin {
		if r.flags&visible != 0 && r.origin != origin {
			return r, false // a second visible origin
		}
		r.origin, r.flags = origin, r.flags|visible
	}
	if keep {
		if !hasOrigin || first != core.ImplicitList(origin) {
			return r, false // a list other than {origin}
		}
		r.flags |= listed
	}
	return r, true
}

// widen returns the state of a record that is not spilled in the
// spilled form.
func (r record) widen() moasRecord {
	var w moasRecord
	if r.flags&visible != 0 {
		w.origins = []astypes.ASN{r.origin}
	}
	w.list, w.listed = r.recorded()
	return w
}

// moasRecord is the state of a spilled prefix.
type moasRecord struct {
	// list is the MOAS list first established for the prefix, which
	// conflicts are judged against; listed reports whether one is.
	list   core.List
	listed bool
	// origins is the set of origins currently visible for the prefix
	// (a MOAS case when it holds two or more, independent of list
	// checking), unsorted and without duplicates.
	origins []astypes.ASN
}

// monitorMetrics is the monitor's instrumentation (WithTelemetry).
type monitorMetrics struct {
	entries *telemetry.Counter
	alarms  *telemetry.Counter
	// cases tracks prefixes currently visible with more than one origin.
	cases *telemetry.Gauge
	// classes counts alarms by ROV-crossed class, the paper evaluation's
	// benign/misconfig/hijack breakdown.
	classes *telemetry.CounterVec
}

func newMonitorMetrics(r *telemetry.Registry) *monitorMetrics {
	return &monitorMetrics{
		entries: r.Counter("monitor_entries_total",
			"Routing-table entries ingested across all vantages."),
		alarms: r.Counter("monitor_alarms_total",
			"MOAS-list alarms raised."),
		cases: r.Gauge("monitor_moas_cases",
			"Prefixes currently visible with more than one origin AS."),
		classes: r.CounterVec("monitor_alarm_class_total",
			"MOAS alarms by RPKI/ROV cross-validated class.", "class"),
	}
}

// Option configures a Monitor.
type Option interface {
	apply(*Monitor)
}

type resolverOption struct{ r core.Resolver }

func (o resolverOption) apply(m *Monitor) { m.resolver = o.r }

// WithResolver classifies alarms against a MOASRR database.
func WithResolver(r core.Resolver) Option {
	return resolverOption{r: r}
}

type rpkiOption struct{ s *rpki.Store }

func (o rpkiOption) apply(m *Monitor) { m.rpki = o.s }

// WithRPKI cross-checks every alarm against a validated ROA store:
// each Alarm (and its forensic bundle) carries the rpki.Classify class
// for the conflicting (prefix, origin).
func WithRPKI(s *rpki.Store) Option {
	return rpkiOption{s: s}
}

type telemetryOption struct{ r *telemetry.Registry }

func (o telemetryOption) apply(m *Monitor) { m.met = newMonitorMetrics(o.r) }

// WithTelemetry counts entries and alarms, alarms by class, and the
// live MOAS-case count on r.
func WithTelemetry(r *telemetry.Registry) Option {
	return telemetryOption{r: r}
}

type traceOption struct{ rec *trace.Recorder }

func (o traceOption) apply(m *Monitor) { m.rec = o.rec }

// WithTrace records a validate event per ingested entry and a forensic
// bundle per alarm (the vantage name lands in the bundle's Note) on
// rec.
func WithTrace(rec *trace.Recorder) Option {
	return traceOption{rec: rec}
}

type obsOption struct{ rec *obs.Recorder }

func (o obsOption) apply(m *Monitor) { m.obs = o.rec }

// WithObs records per-stage detection latency on rec for every entry
// ingested through the *Stamp observation paths.
func WithObs(rec *obs.Recorder) Option {
	return obsOption{rec: rec}
}

type onAlarmOption func(Alarm)

func (o onAlarmOption) apply(m *Monitor) { m.onAlarm = o }

// WithOnAlarm calls fn once per alarm, on the observing goroutine,
// after the monitor's lock is released (so fn may call back into the
// monitor).
func WithOnAlarm(fn func(Alarm)) Option {
	return onAlarmOption(fn)
}

// New returns an empty monitor.
func New(opts ...Option) *Monitor {
	m := &Monitor{prefixes: make(map[astypes.Prefix]record), moas: make(map[astypes.Prefix]moasRecord)}
	for _, o := range opts {
		o.apply(m)
	}
	if m.met == nil {
		m.met = newMonitorMetrics(telemetry.NewRegistry("moas"))
	}
	return m
}

// ObserveDump ingests one table (a collector snapshot or a router's MIB
// route table) from the named vantage, each entry as a one-prefix UPDATE.
func (m *Monitor) ObserveDump(vantage string, d *routegen.Dump) {
	u := wire.Update{NLRI: make([]astypes.Prefix, 1)}
	for _, e := range d.Entries {
		u.NLRI[0] = e.Prefix
		u.Attrs.ASPath = e.Path
		u.Attrs.Communities = e.Communities
		m.ObserveUpdate(vantage, &u)
	}
}

// ObserveUpdate ingests one BGP UPDATE from the named vantage: a live
// feed's message, an archived one, or a table entry presented as a
// one-prefix announcement. A MOAS-list attribute (core.ListAttrCode) it
// carries takes precedence over its communities.
func (m *Monitor) ObserveUpdate(vantage string, u *wire.Update) {
	m.ObserveUpdateStamp(vantage, u, nil)
}

// ObserveUpdateStamp is ObserveUpdate with the caller's stage stamp,
// shared by every NLRI prefix of the update: replay paths pass the
// source record's span, so an alarm bundle points back at the exact
// archived record that raised it; each check lands a validate-stage
// crossing and a detected conflict records the cumulative ingest →
// alarm latency. A nil stamp gives each prefix its own ordinal: the
// monitor has no wire decoder to mint spans, and bundle forensics can
// then say "the Nth entry of this run" rather than nothing.
//
// The update's peer is unknown here, so its alarms name AS 0 as the
// peer it was learned from; ObserveUpdateFrom takes the peer.
func (m *Monitor) ObserveUpdateStamp(vantage string, u *wire.Update, st *obs.Stamp) {
	m.ObserveUpdateFrom(vantage, astypes.ASNNone, u, st)
}

// ObserveUpdateFrom is ObserveUpdateStamp for an update learned from
// peer AS peer, which its alarms name: the entry of every source that
// knows the peer (an MRT archive, a RIS-Live feed, a collector's BGP
// sessions). The monitor's lock is taken once per update; the
// WithOnAlarm hook runs for each alarm raised after it is released.
func (m *Monitor) ObserveUpdateFrom(vantage string, peer astypes.ASN, u *wire.Update, st *obs.Stamp) {
	listAttr := wire.FindUnknownAttr(u.Attrs.Unknown, core.ListAttrCode)
	m.mu.Lock()
	before := len(m.alarms)
	for _, prefix := range u.NLRI {
		m.check(vantage, peer, prefix, u, listAttr, st)
	}
	for _, w := range u.Withdrawn {
		if m.prefixes[w].flags&spilled != 0 {
			if len(m.moas[w].origins) >= 2 {
				m.met.cases.Dec()
			}
			delete(m.moas, w)
		}
		delete(m.prefixes, w)
	}
	// Alarms are only ever appended, so the ones raised here stay
	// readable after the lock is released.
	raised := m.alarms[before:]
	m.mu.Unlock()
	if m.onAlarm != nil {
		for _, a := range raised {
			m.onAlarm(a)
		}
	}
}

// check judges one announced prefix of u, learned from peer, under st's
// span, folds it into the prefix's record and logs its alarm, if any.
// listAttr is u's raw MOAS-list attribute (nil when absent). The caller
// holds m.mu.
func (m *Monitor) check(vantage string, peer astypes.ASN, prefix astypes.Prefix, u *wire.Update, listAttr []byte, st *obs.Stamp) {
	var span uint64
	if st != nil {
		span = st.Span
	} else {
		m.seq++
		span = m.seq
	}
	path := u.Attrs.ASPath
	rec := m.prefixes[prefix]
	var wide moasRecord
	recorded, seen := rec.recorded()
	if rec.flags&spilled != 0 {
		wide = m.moas[prefix]
		recorded, seen = wide.list, wide.listed
	}
	verdict, conflict, first := core.Check(recorded, seen, core.Announcement{
		Prefix:      prefix,
		Path:        path,
		Communities: u.Attrs.Communities,
		ListAttr:    listAttr,
		FromPeer:    peer,
		Span:        span,
	})
	m.obs.Cross(st, obs.StageValidate)
	origin, hasOrigin := path.Origin()
	m.fold(prefix, rec, wide, !seen && conflict == nil, first, origin, hasOrigin)
	m.met.entries.Inc()
	var class rpki.Class
	if conflict != nil {
		class = rpki.Classify(m.rpki.Validate(prefix, conflict.Origin), verdict)
		// Detection latency: ingest instant → alarm raise, cumulative.
		m.obs.End(st, obs.StageAlarm)
	}
	if m.rec.Enabled() {
		m.rec.Record(trace.Event{
			Kind:   trace.KindValidate,
			Detail: trace.VerdictDetail(verdict),
			Span:   span,
			Origin: origin,
			Prefix: prefix,
		})
		if conflict != nil {
			b := trace.ConflictBundle(conflict, class.String())
			b.Note = vantage
			m.rec.RecordAlarm(prefix, b)
		}
	}
	if conflict == nil {
		return
	}
	m.alarms = append(m.alarms, Alarm{Conflict: *conflict, Vantage: vantage, Class: class})
	m.met.alarms.Inc()
	m.met.classes.With(class.String()).Inc()
}

// fold records first as prefix's list when keep is set, and origin as
// visible when hasOrigin, into the prefix's record rec (and, when it is
// spilled, its state wide). The caller holds m.mu.
func (m *Monitor) fold(prefix astypes.Prefix, rec record, wide moasRecord, keep bool, first core.List, origin astypes.ASN, hasOrigin bool) {
	if rec.flags&spilled == 0 {
		if next, ok := rec.with(keep, first, origin, hasOrigin); ok {
			if next != rec {
				m.prefixes[prefix] = next
			}
			return
		}
		wide = rec.widen()
		m.prefixes[prefix] = record{flags: spilled}
	}
	if keep {
		wide.list, wide.listed = first, true
	}
	if hasOrigin && !slices.Contains(wide.origins, origin) {
		wide.origins = append(wide.origins, origin)
		// A prefix becomes a MOAS case when its visible origin set
		// crosses from one to two.
		if len(wide.origins) == 2 {
			m.met.cases.Inc()
		}
	}
	m.moas[prefix] = wide
}

// Alarms returns all alarms in detection order.
func (m *Monitor) Alarms() []Alarm {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Alarm, len(m.alarms))
	copy(out, m.alarms)
	return out
}

// AlarmCount returns the number of alarms raised, read from the
// monitor_alarms_total counter without copying the log. Like the
// counter, it counts every monitor instrumented on the same
// WithTelemetry registry.
func (m *Monitor) AlarmCount() uint64 { return m.met.alarms.Value() }

// MOASCase is one prefix with its currently visible origin set.
type MOASCase struct {
	Prefix  astypes.Prefix
	Origins []astypes.ASN
	// Invalid is set when a resolver is configured and some visible
	// origin is outside the registered valid set; Known reports whether
	// the resolver had a record at all.
	Invalid bool
	Known   bool
}

// MOASCases returns every prefix currently visible with more than one
// origin, classified against the resolver when available, sorted by
// prefix.
func (m *Monitor) MOASCases() []MOASCase {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []MOASCase
	for prefix, w := range m.moas {
		if len(w.origins) < 2 {
			continue
		}
		c := MOASCase{Prefix: prefix, Origins: astypes.SortASNs(slices.Clone(w.origins))}
		if m.resolver != nil {
			if valid, ok := m.resolver.ValidOrigins(prefix); ok {
				c.Known = true
				for _, o := range c.Origins {
					if !valid.Contains(o) {
						c.Invalid = true
						break
					}
				}
			}
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// AlarmGroup aggregates the alarms of one prefix: operators care about
// "which prefixes are in conflict and with whom", not a raw event list.
type AlarmGroup struct {
	Prefix astypes.Prefix
	Count  int
	// Origins are the distinct conflicting origin ASes observed.
	Origins []astypes.ASN
	// Vantages are the distinct feeds that contributed alarms.
	Vantages []string
}

// AlarmSummary groups all alarms by prefix, sorted by descending count
// (then by prefix for determinism).
func (m *Monitor) AlarmSummary() []AlarmGroup {
	m.mu.Lock()
	defer m.mu.Unlock()
	type agg struct {
		count    int
		origins  map[astypes.ASN]struct{}
		vantages map[string]struct{}
	}
	byPrefix := make(map[astypes.Prefix]*agg)
	for _, a := range m.alarms {
		g := byPrefix[a.Conflict.Prefix]
		if g == nil {
			g = &agg{
				origins:  make(map[astypes.ASN]struct{}),
				vantages: make(map[string]struct{}),
			}
			byPrefix[a.Conflict.Prefix] = g
		}
		g.count++
		g.origins[a.Conflict.Origin] = struct{}{}
		g.vantages[a.Vantage] = struct{}{}
	}
	out := make([]AlarmGroup, 0, len(byPrefix))
	for prefix, g := range byPrefix {
		group := AlarmGroup{Prefix: prefix, Count: g.count}
		for o := range g.origins {
			group.Origins = append(group.Origins, o)
		}
		astypes.SortASNs(group.Origins)
		for v := range g.vantages {
			group.Vantages = append(group.Vantages, v)
		}
		sort.Strings(group.Vantages)
		out = append(out, group)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Prefix.Compare(out[j].Prefix) < 0
	})
	return out
}
