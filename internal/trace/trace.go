// Package trace is the flight recorder: a fixed-size lock-free ring of
// typed routing-plane events (message received, validated, RIB
// decision, export, alarm) shared by the live path (wire → session →
// speaker/daemon → rib → core.Checker) and the simulator. Recording is
// allocation-free and cheap enough for per-message call sites; a
// disabled or absent recorder costs one atomic load (or nothing at all
// for a nil *Recorder), so untraced runs pay essentially zero.
//
// Every MOAS alarm additionally snapshots a forensic AlarmBundle — the
// competing MOAS lists, the offending AS path, and the decision
// timeline for the prefix — which is what separates a benign MOAS from
// a hijack when an operator investigates. Bundles are served by the
// admin endpoint (/debug/alarms, see Routes) next to /debug/trace.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/astypes"
	"repro/internal/core"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds, following a message through the pipeline.
const (
	// KindRecv: a message was received and decoded (wire → session).
	KindRecv Kind = iota + 1
	// KindValidate: the MOAS checker judged one announced prefix.
	KindValidate
	// KindRIB: the decision process ran for a prefix.
	KindRIB
	// KindExport: an UPDATE (or withdrawal) was queued to a peer.
	KindExport
	// KindAlarm: a MOAS conflict was detected; a forensic bundle was
	// captured alongside this event.
	KindAlarm
)

func (k Kind) String() string {
	switch k {
	case KindRecv:
		return "recv"
	case KindValidate:
		return "validate"
	case KindRIB:
		return "rib"
	case KindExport:
		return "export"
	case KindAlarm:
		return "alarm"
	default:
		return "unknown"
	}
}

// Detail qualifies an event within its kind.
type Detail uint8

// Event details.
const (
	DetailNone Detail = iota
	// Validation outcomes (KindValidate, KindAlarm).
	DetailConsistent
	DetailConflict
	DetailOriginNotListed
	DetailRejected
	// Decision-process outcomes (KindRIB).
	DetailInstalled
	DetailReplaced
	DetailWithdrawn
	// Export flavours (KindExport); DetailWithdrawal also marks a
	// received withdrawal on KindRecv.
	DetailAdvertise
	DetailWithdrawal
)

func (d Detail) String() string {
	switch d {
	case DetailNone:
		return ""
	case DetailConsistent:
		return "consistent"
	case DetailConflict:
		return "conflict"
	case DetailOriginNotListed:
		return "origin-not-listed"
	case DetailRejected:
		return "rejected"
	case DetailInstalled:
		return "installed"
	case DetailReplaced:
		return "replaced"
	case DetailWithdrawn:
		return "withdrawn"
	case DetailAdvertise:
		return "advertise"
	case DetailWithdrawal:
		return "withdrawal"
	default:
		return "unknown"
	}
}

// Event is one recorded routing-plane event. It is a fixed-size value —
// no slices, no pointers — so the record path never allocates; the full
// AS path and MOAS lists of an alarm live in its AlarmBundle instead.
type Event struct {
	// Seq is the event's position in the recorder's global order.
	Seq uint64
	// Nanos is the wall-clock UnixNano timestamp (zero when the
	// recorder runs WithoutWallClock, e.g. deterministic simulations).
	Nanos int64
	// VNanos is the virtual time of simulator events (zero on the live
	// path).
	VNanos int64
	// Span correlates the events of one received message: the per
	// session message ordinal minted by wire.Decoder. Spans are unique
	// within a session; (Peer, Span) disambiguates across sessions.
	Span   uint64
	Kind   Kind
	Detail Detail
	// Node is the AS recording the event; Peer the message source
	// (ASNNone for local events); Origin the originating AS of the
	// route involved, when known.
	Node   astypes.ASN
	Peer   astypes.ASN
	Origin astypes.ASN
	Prefix astypes.Prefix
	// Aux is kind-specific: NLRI (or withdrawn-route) count on
	// KindRecv, the alarm bundle ID on KindAlarm.
	Aux uint32
}

// slot is one ring entry: a seqlock-published event packed into atomic
// words. mark holds seq+1 while the event is published and 0 while a
// writer is mid-store, so readers can detect and skip torn entries
// without taking a lock.
type slot struct {
	mark atomic.Uint64
	w    [6]atomic.Uint64
}

func (s *slot) store(e *Event) {
	s.w[0].Store(uint64(e.Nanos))
	s.w[1].Store(uint64(e.VNanos))
	s.w[2].Store(e.Span)
	s.w[3].Store(uint64(e.Kind)<<56 | uint64(e.Detail)<<48 |
		uint64(e.Node)<<32 | uint64(e.Peer)<<16 | uint64(e.Origin))
	s.w[4].Store(packPrefix(e.Prefix))
	s.w[5].Store(uint64(e.Aux))
}

// packPrefix is a prefix's slot word (w[4]), so a filtered scan can
// compare one atomic word against it before loading the whole slot.
func packPrefix(p astypes.Prefix) uint64 {
	return uint64(p.Addr)<<32 | uint64(p.Len)<<24
}

func (s *slot) load(e *Event) {
	e.Nanos = int64(s.w[0].Load())
	e.VNanos = int64(s.w[1].Load())
	e.Span = s.w[2].Load()
	packed := s.w[3].Load()
	e.Kind = Kind(packed >> 56)
	e.Detail = Detail(packed >> 48 & 0xff)
	e.Node = astypes.ASN(packed >> 32 & 0xffff)
	e.Peer = astypes.ASN(packed >> 16 & 0xffff)
	e.Origin = astypes.ASN(packed & 0xffff)
	pfx := s.w[4].Load()
	e.Prefix = astypes.Prefix{Addr: uint32(pfx >> 32), Len: uint8(pfx >> 24 & 0xff)}
	e.Aux = uint32(s.w[5].Load())
}

// Recorder is the lock-free flight recorder: a power-of-two ring of
// event slots claimed by one atomic increment and published per slot
// with a seqlock mark. Record never blocks and never allocates; when
// the ring wraps, the oldest events are overwritten.
//
// Torn reads are handled, not prevented: Events validates each slot's
// mark before and after copying it and drops entries that changed
// underneath it. The one theoretical gap — a writer stalled for an
// entire ring revolution while another writer reuses its slot — would
// publish mixed words under a valid mark; with rings of thousands of
// slots and writers that finish in nanoseconds this is not a practical
// concern, and a misattributed trace event (not a crash) is the worst
// outcome.
type Recorder struct {
	slots []slot
	mask  uint64
	// seq is the next event sequence number; seq-1 addressed the most
	// recently claimed slot.
	seq atomic.Uint64
	// on gates recording: the single atomic load a disabled-but-present
	// recorder costs on the hot path.
	on atomic.Bool
	// wall, set at construction, stamps events with time.Now;
	// WithoutWallClock disables it for deterministic traces.
	wall bool

	// alarmMu guards alarms and alarmSeq. Alarm capture is rare (one
	// per detected MOAS conflict) and allocation there is acceptable.
	alarmMu   sync.Mutex
	alarms    []AlarmBundle // guarded by alarmMu
	alarmSeq  int           // guarded by alarmMu
	maxAlarms int
}

// Option configures a Recorder.
type Option interface {
	apply(*Recorder)
}

type optionFunc func(*Recorder)

func (f optionFunc) apply(r *Recorder) { f(r) }

// WithoutWallClock stops the recorder stamping events and bundles with
// time.Now, leaving timestamps exactly as recorded by callers — the
// deterministic mode simulator traces need (same seed, byte-identical
// timeline).
func WithoutWallClock() Option {
	return optionFunc(func(r *Recorder) { r.wall = false })
}

// WithMaxAlarms bounds the retained alarm bundles (default 64; the
// oldest are evicted first, their IDs stay assigned).
func WithMaxAlarms(n int) Option {
	return optionFunc(func(r *Recorder) {
		if n > 0 {
			r.maxAlarms = n
		}
	})
}

// NewRecorder builds an enabled recorder holding the most recent size
// events (rounded up to a power of two, minimum 16).
func NewRecorder(size int, opts ...Option) *Recorder {
	n := 16
	for n < size && n < 1<<24 {
		n <<= 1
	}
	r := &Recorder{
		slots:     make([]slot, n),
		mask:      uint64(n - 1),
		wall:      true,
		maxAlarms: 64,
	}
	for _, o := range opts {
		o.apply(r)
	}
	r.on.Store(true)
	return r
}

// Enabled reports whether the recorder is recording. Nil-safe.
func (r *Recorder) Enabled() bool { return r != nil && r.on.Load() }

// SetEnabled toggles recording without discarding captured events.
func (r *Recorder) SetEnabled(on bool) { r.on.Store(on) }

// Cap returns the ring capacity in events.
func (r *Recorder) Cap() int { return len(r.slots) }

// Record captures one event. Nil-safe and allocation-free; a disabled
// recorder pays one atomic load.
func (r *Recorder) Record(e Event) {
	if r == nil || !r.on.Load() {
		return
	}
	if r.wall {
		e.Nanos = time.Now().UnixNano()
	}
	i := r.seq.Add(1) - 1
	s := &r.slots[i&r.mask]
	s.mark.Store(0)
	s.store(&e)
	s.mark.Store(i + 1)
}

// Seq returns the number of events recorded so far (including
// overwritten ones).
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Dropped returns how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	head := r.seq.Load()
	if n := uint64(len(r.slots)); head > n {
		return head - n
	}
	return 0
}

// Events returns a snapshot of the retained events, oldest first.
// Entries a concurrent writer is mid-publish (or has already
// overwritten) are skipped rather than returned torn.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	head := r.seq.Load()
	return r.appendRetained(make([]Event, 0, min(head, uint64(len(r.slots)))), head, nil)
}

// appendRetained appends the events retained below sequence head to
// out, oldest first; with only set, just that prefix's events. A slot
// must carry the mark i+1 both before and after it is copied, so one a
// writer is mid-publish on (or has overwritten) is skipped, not returned
// torn. The filter reads the slot's packed prefix word before copying,
// so a slot of another prefix costs two atomic loads and copies nothing.
func (r *Recorder) appendRetained(out []Event, head uint64, only *astypes.Prefix) []Event {
	start := uint64(0)
	if n := uint64(len(r.slots)); head > n {
		start = head - n
	}
	var want uint64
	if only != nil {
		want = packPrefix(*only)
	}
	for i := start; i < head; i++ {
		s := &r.slots[i&r.mask]
		if s.mark.Load() != i+1 || only != nil && s.w[4].Load() != want {
			continue
		}
		var e Event
		s.load(&e)
		if s.mark.Load() != i+1 || only != nil && e.Prefix != *only {
			continue // overwritten while copying; drop the torn read
		}
		e.Seq = i
		out = append(out, e)
	}
	return out
}

// AlarmBundle is the forensic record captured for one MOAS alarm: the
// conflicting announcement's identity, both competing MOAS lists, the
// offending AS path, and the event timeline for the prefix at capture
// time. Field types are JSON-friendly on purpose — bundles exist to be
// shipped to an operator (/debug/alarms) or a report, not to sit on a
// hot path.
type AlarmBundle struct {
	// ID is the bundle's stable identity: /debug/alarms/<ID>.
	ID int `json:"id"`
	// Nanos is the wall-clock capture time; VNanos the virtual time for
	// simulator alarms.
	Nanos  int64 `json:"ns"`
	VNanos int64 `json:"vns"`
	// Span of the message that triggered the alarm (0 when unknown).
	Span uint64 `json:"span"`
	// Node is the detecting AS; FromPeer the session the conflicting
	// announcement arrived on; Origin its origin AS.
	Node     uint32 `json:"node"`
	FromPeer uint32 `json:"fromPeer"`
	Origin   uint32 `json:"origin"`
	Prefix   string `json:"prefix"`
	// Verdict is the checker's classification ("conflict" or
	// "origin-not-listed").
	Verdict string `json:"verdict"`
	// Class is the cross-validated severity from rpki.Classify —
	// "benign-moas", "likely-misconfig" or "likely-hijack" — crossing the
	// ROV outcome for (Prefix, Origin) with the checker verdict. Callers
	// without RPKI data still classify: a silent RPKI degrades to the
	// MOAS-provenance classes.
	Class string `json:"class"`
	// Note carries deployment context (e.g. the monitor's vantage).
	Note string `json:"note,omitempty"`
	// Existing is the MOAS list previously accepted for the prefix;
	// Received the inconsistent list on the incoming route; Path the
	// incoming route's AS path, origin last.
	Existing []uint32 `json:"existingList"`
	Received []uint32 `json:"receivedList"`
	Path     []uint32 `json:"path"`
	// Origins is the sorted union of Existing, Received and Origin —
	// the complete set of ASes competing for the prefix.
	Origins []uint32 `json:"origins"`
	// Timeline holds the retained trace events for the prefix up to and
	// including the alarm, oldest first.
	Timeline []Event `json:"timeline"`
}

// ConflictBundle builds the forensic bundle for one detected conflict:
// its span, provenance, verdict, both competing MOAS lists and the
// offending path, plus the caller's class (rpki.Classify). Every
// detector raises alarms through it; callers add only what is theirs
// (Node, Note, VNanos) before RecordAlarm.
func ConflictBundle(c *core.Conflict, class string) AlarmBundle {
	return AlarmBundle{
		Span:     c.Span,
		FromPeer: uint32(c.FromPeer),
		Origin:   uint32(c.Origin),
		Verdict:  c.Verdict.String(),
		Class:    class,
		Existing: ASNs(c.Existing.Origins()),
		Received: ASNs(c.Received.Origins()),
		Path:     PathASNs(c.Path),
	}
}

// VerdictDetail maps a checker verdict to its validate-event detail.
func VerdictDetail(v core.Verdict) Detail {
	switch v {
	case core.VerdictConflict:
		return DetailConflict
	case core.VerdictOriginNotListed:
		return DetailOriginNotListed
	default:
		return DetailConsistent
	}
}

// Origins computes the sorted union of existing ∪ received ∪ {origin},
// dropping zeros.
func unionOrigins(existing, received []uint32, origin uint32) []uint32 {
	seen := make(map[uint32]bool, len(existing)+len(received)+1)
	add := func(a uint32) {
		if a != 0 {
			seen[a] = true
		}
	}
	for _, a := range existing {
		add(a)
	}
	for _, a := range received {
		add(a)
	}
	add(origin)
	out := make([]uint32, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RecordAlarm captures a forensic bundle: it fills in the bundle's ID,
// prefix string, origin union, wall time (unless WithoutWallClock) and
// prefix-filtered event timeline, records the matching KindAlarm ring
// event, and retains the bundle for Alarms/Alarm. Returns the assigned
// ID, or -1 when the recorder is nil or disabled.
func (r *Recorder) RecordAlarm(prefix astypes.Prefix, b AlarmBundle) int {
	if r == nil || !r.on.Load() {
		return -1
	}
	if r.wall {
		b.Nanos = time.Now().UnixNano()
	}
	b.Prefix = prefix.String()
	b.Origins = unionOrigins(b.Existing, b.Received, b.Origin)

	r.alarmMu.Lock()
	defer r.alarmMu.Unlock()
	b.ID = r.alarmSeq
	r.alarmSeq++

	// The alarm event goes into the ring first so the timeline below
	// ends with it.
	r.Record(Event{
		Nanos:  b.Nanos,
		VNanos: b.VNanos,
		Span:   b.Span,
		Kind:   KindAlarm,
		Detail: alarmDetail(b.Verdict),
		Node:   astypes.ASN(b.Node),
		Peer:   astypes.ASN(b.FromPeer),
		Origin: astypes.ASN(b.Origin),
		Prefix: prefix,
		Aux:    uint32(b.ID),
	})
	b.Timeline = r.appendRetained(nil, r.seq.Load(), &prefix)

	r.alarms = append(r.alarms, b)
	if len(r.alarms) > r.maxAlarms {
		// Evict oldest; copy down so the backing array doesn't pin them.
		n := copy(r.alarms, r.alarms[len(r.alarms)-r.maxAlarms:])
		r.alarms = r.alarms[:n]
	}
	return b.ID
}

// alarmDetail maps a bundle's verdict string to its alarm-event detail.
func alarmDetail(v string) Detail {
	switch v {
	case "origin-not-listed":
		return DetailOriginNotListed
	default:
		return DetailConflict
	}
}

// Alarms returns a copy of the retained alarm bundles, oldest first.
func (r *Recorder) Alarms() []AlarmBundle {
	if r == nil {
		return nil
	}
	r.alarmMu.Lock()
	defer r.alarmMu.Unlock()
	out := make([]AlarmBundle, len(r.alarms))
	copy(out, r.alarms)
	return out
}

// Alarm returns the bundle with the given ID, if still retained.
func (r *Recorder) Alarm(id int) (AlarmBundle, bool) {
	if r == nil {
		return AlarmBundle{}, false
	}
	r.alarmMu.Lock()
	defer r.alarmMu.Unlock()
	for i := range r.alarms {
		if r.alarms[i].ID == id {
			return r.alarms[i], true
		}
	}
	return AlarmBundle{}, false
}

// AlarmCount returns how many alarm bundles have been captured in
// total (retained or evicted).
func (r *Recorder) AlarmCount() int {
	if r == nil {
		return 0
	}
	r.alarmMu.Lock()
	defer r.alarmMu.Unlock()
	return r.alarmSeq
}

// ASNs converts a typed ASN slice to the bundle's wire-width form.
func ASNs(in []astypes.ASN) []uint32 {
	if len(in) == 0 {
		return nil
	}
	out := make([]uint32, len(in))
	for i, a := range in {
		out[i] = uint32(a)
	}
	return out
}

// PathASNs flattens an AS path into hop order (origin last), the form
// alarm bundles carry.
func PathASNs(p astypes.ASPath) []uint32 {
	var out []uint32
	for _, seg := range p.Segments {
		for _, a := range seg.ASNs {
			out = append(out, uint32(a))
		}
	}
	return out
}
