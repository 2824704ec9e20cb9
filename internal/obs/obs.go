// Package obs is the detection-latency observatory: a per-message
// stage-timing layer keyed on the span IDs the wire decoder (and the
// replay/streaming ingest paths) already mint. A monotonic ingest
// timestamp is stamped when a message enters the system — after the
// frame is read off the wire, before an MRT record decodes, before a
// RIS-Live line decodes — and every stage crossing after that records
// its delta into a per-stage telemetry.Histogram, the repo's one
// lock-free, allocation-free latency histogram:
//
//	decode   framing/parse cost of the message itself
//	session  decode completion → handler dispatch (queueing included)
//	validate MOAS-list check (speaker admit / monitor check)
//	rib      Loc-RIB apply and propagation
//	alarm    ingest → alarm raise, cumulative — the paper's detection
//	         latency, the one SLO an operator pages on
//
// Each histogram bucket retains an exemplar: the span ID of a recent
// message that landed in it, so a p99 outlier links straight to its
// /debug/trace timeline or /debug/alarms bundle instead of being an
// anonymous count. See docs/latency.md for the stage model.
//
// The record path (Record, Cross, End) is lock-free, allocates
// nothing, and is nil-safe throughout, so instrumented code needs no
// conditionals.
package obs

import (
	"math"
	"time"

	"repro/internal/telemetry"
)

// Stage identifies one pipeline stage boundary.
type Stage uint8

// Pipeline stages, in crossing order. StageAlarm is cumulative
// (ingest → alarm); the others are deltas from the previous crossing.
const (
	StageDecode Stage = iota
	StageSession
	StageValidate
	StageRIB
	StageAlarm
	// NumStages bounds the Stage space; not a stage itself.
	NumStages
)

func (s Stage) String() string {
	switch s {
	case StageDecode:
		return "decode"
	case StageSession:
		return "session"
	case StageValidate:
		return "validate"
	case StageRIB:
		return "rib"
	case StageAlarm:
		return "alarm"
	default:
		return "unknown"
	}
}

// Recorder accumulates per-stage latency histograms. Build one with
// NewRecorder; a nil recorder is the off switch, and all methods are
// nil-receiver safe.
type Recorder struct {
	// epoch anchors relative time: deltas are computed against one
	// process-local monotonic reference so a Stamp is two plain int64s.
	epoch  time.Time
	stages [NumStages]telemetry.Histogram
}

// NewRecorder returns a recording recorder.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Enabled reports whether the recorder is active: a nil recorder is
// the only one that is not.
func (r *Recorder) Enabled() bool { return r != nil }

// now returns nanoseconds since the recorder's epoch, monotonic.
func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Record adds one observation of d to stage, tagging the landing bucket
// with span as its exemplar (span 0 leaves the exemplar untouched).
func (r *Recorder) Record(stage Stage, span uint64, d time.Duration) {
	if r == nil || stage >= NumStages {
		return
	}
	r.stages[stage].ObserveSpan(d, span)
}

// Stamp carries one in-flight message's timing context: its span ID,
// the monotonic ingest instant, and the last stage crossing. It travels
// by value (or by pointer into per-connection scratch) alongside the
// message; the zero value is inert and every operation on it no-ops.
type Stamp struct {
	// Span is the message's span ID (the wire decoder ordinal, an MRT
	// record span, or a RIS-Live stream ordinal).
	Span uint64
	// t0 and last are nanoseconds since the recorder's epoch; 0 means
	// the stamp was never started (nil recorder).
	t0   int64
	last int64
}

// Started reports whether the stamp carries a live ingest timestamp.
func (st *Stamp) Started() bool { return st != nil && st.t0 != 0 }

// Start mints a stamp at the ingest instant for the message identified
// by span (0 when the span is not known yet; fill Span in later).
func (r *Recorder) Start(span uint64) Stamp {
	if r == nil {
		return Stamp{Span: span}
	}
	n := r.now()
	if n == 0 {
		n = 1 // preserve the t0 != 0 "started" invariant
	}
	return Stamp{Span: span, t0: n, last: n}
}

// Cross records the delta since the previous crossing (or Start) into
// stage and advances the stamp. No-op on a nil/zero stamp or nil
// recorder.
func (r *Recorder) Cross(st *Stamp, stage Stage) {
	if r == nil || st == nil || st.t0 == 0 {
		return
	}
	n := r.now()
	r.Record(stage, st.Span, time.Duration(n-st.last))
	st.last = n
}

// End records the cumulative latency from ingest (Start) into stage —
// the wire-arrival → alarm detection latency when used with StageAlarm.
// The stamp stays valid: End does not advance the crossing point, so a
// pipeline can End into StageAlarm and still Cross into StageRIB after.
func (r *Recorder) End(st *Stamp, stage Stage) {
	if r == nil || st == nil || st.t0 == 0 {
		return
	}
	r.Record(stage, st.Span, time.Duration(r.now()-st.t0))
}

// BucketSnapshot is one non-empty histogram bucket.
type BucketSnapshot struct {
	// UpperNs is the bucket's inclusive upper bound in nanoseconds;
	// math.MaxInt64 marks the overflow bucket (rendered as +Inf).
	UpperNs int64  `json:"upperNs"`
	Count   uint64 `json:"count"`
	// ExemplarSpan is the span ID of a recent message that landed here
	// (0 = none recorded).
	ExemplarSpan uint64 `json:"exemplarSpan,omitempty"`
}

// StageSnapshot is one stage's merged point-in-time reading, quantiles
// pre-computed so consumers (moas-top, /debug/status) need no
// client-side re-derivation.
type StageSnapshot struct {
	Stage string `json:"stage"`
	Count uint64 `json:"count"`
	SumNs int64  `json:"sumNs"`
	MaxNs int64  `json:"maxNs"`
	P50Ns int64  `json:"p50Ns"`
	P90Ns int64  `json:"p90Ns"`
	P99Ns int64  `json:"p99Ns"`
	// Buckets lists only the non-empty buckets, smallest bound first.
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot returns every stage's current histogram, in stage order.
// Stages with no observations are included with Count 0 so consumers
// always see the complete stage model.
func (r *Recorder) Snapshot() []StageSnapshot {
	if r == nil {
		return nil
	}
	out := make([]StageSnapshot, 0, int(NumStages))
	for s := Stage(0); s < NumStages; s++ {
		h := r.stages[s].Snapshot()
		snap := StageSnapshot{
			Stage: s.String(),
			Count: h.Count,
			SumNs: int64(math.Round(h.Sum * 1e9)),
			MaxNs: int64(h.Max),
			P50Ns: int64(h.Quantile(0.50)),
			P90Ns: int64(h.Quantile(0.90)),
			P99Ns: int64(h.Quantile(0.99)),
		}
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			snap.Buckets = append(snap.Buckets, BucketSnapshot{
				UpperNs:      int64(telemetry.BucketBound(i)),
				Count:        c,
				ExemplarSpan: h.Exemplars[i],
			})
		}
		out = append(out, snap)
	}
	return out
}

// StageCount returns the observation count of one stage (0 on nil).
func (r *Recorder) StageCount(stage Stage) uint64 {
	if r == nil || stage >= NumStages {
		return 0
	}
	return r.stages[stage].Count()
}
