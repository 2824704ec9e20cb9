// Package obs is the detection-latency observatory: a per-message
// stage-timing layer keyed on the span IDs the wire decoder (and the
// replay/streaming ingest paths) already mint. A monotonic ingest
// timestamp is stamped when a message enters the system — after the
// frame is read off the wire, before an MRT record decodes, before a
// RIS-Live line decodes — and every stage crossing after that records
// its delta into a fixed, allocation-free per-stage histogram:
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
// The record path (Record, Cross, End) is lock-free — atomic adds into
// fixed arrays — allocates nothing, and is nil-safe throughout, so
// instrumented code needs no conditionals.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
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

// Bucket geometry: powers of two in nanoseconds. Bucket 0 holds
// everything under 256ns; bucket i holds [2^(7+i), 2^(8+i)) ns; the
// last bucket is the +Inf overflow (everything ≥ ~1.07s).
const (
	bucketMinBits = 8
	numBuckets    = 24
)

// bucketOf maps a nanosecond duration to its bucket index.
func bucketOf(ns int64) int {
	b := bits.Len64(uint64(ns))
	if b <= bucketMinBits {
		return 0
	}
	i := b - bucketMinBits
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// BucketBound returns the inclusive upper bound of bucket i in
// nanoseconds (math.MaxInt64 for the overflow bucket).
func BucketBound(i int) int64 {
	if i < 0 {
		return 0
	}
	if i >= numBuckets-1 {
		return math.MaxInt64
	}
	return 1<<(bucketMinBits+i) - 1
}

// bucketLower returns the exclusive-lower/inclusive-lower edge of
// bucket i, used for quantile interpolation.
func bucketLower(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (bucketMinBits + i - 1)
}

// stageHist is one stage's latency histogram: per-bucket counts plus a
// per-bucket exemplar span, all atomics so the record path never locks.
type stageHist struct {
	counts [numBuckets]atomic.Uint64
	// exemplars[i] holds the span ID of a recent message that landed in
	// bucket i (0 = none yet). Last-writer-wins on purpose: "a recent
	// one" is the contract, not "the maximum".
	exemplars [numBuckets]atomic.Uint64
	count     atomic.Uint64
	sumNs     atomic.Int64
	maxNs     atomic.Int64
}

// Recorder accumulates per-stage latency histograms. The zero value is
// disabled; NewRecorder returns an enabled one. All methods are
// nil-receiver safe.
type Recorder struct {
	on atomic.Bool
	// epoch anchors relative time: deltas are computed against one
	// process-local monotonic reference so a Stamp is two plain int64s.
	epoch  time.Time
	stages [NumStages]stageHist
}

// NewRecorder returns an enabled recorder.
func NewRecorder() *Recorder {
	r := &Recorder{epoch: time.Now()}
	r.on.Store(true)
	return r
}

// SetEnabled toggles recording. Disabled recorders cost one atomic load
// per call site.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// Enabled reports whether the recorder is active.
func (r *Recorder) Enabled() bool { return r != nil && r.on.Load() }

// now returns nanoseconds since the recorder's epoch, monotonic.
func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Record adds one observation of d to stage, tagging the landing bucket
// with span as its exemplar (span 0 leaves the exemplar untouched).
func (r *Recorder) Record(stage Stage, span uint64, d time.Duration) {
	if r == nil || !r.on.Load() || stage >= NumStages {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h := &r.stages[stage]
	i := bucketOf(ns)
	h.counts[i].Add(1)
	if span != 0 {
		h.exemplars[i].Store(span)
	}
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
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
	// the stamp was never started (disabled or nil recorder).
	t0   int64
	last int64
}

// Started reports whether the stamp carries a live ingest timestamp.
func (st *Stamp) Started() bool { return st != nil && st.t0 != 0 }

// Start mints a stamp at the ingest instant for the message identified
// by span (0 when the span is not known yet; fill Span in later).
func (r *Recorder) Start(span uint64) Stamp {
	if r == nil || !r.on.Load() {
		return Stamp{Span: span}
	}
	n := r.now()
	if n == 0 {
		n = 1 // preserve the t0 != 0 "started" invariant
	}
	return Stamp{Span: span, t0: n, last: n}
}

// Cross records the delta since the previous crossing (or Start) into
// stage and advances the stamp. No-op on a nil/zero stamp or disabled
// recorder.
func (r *Recorder) Cross(st *Stamp, stage Stage) {
	if r == nil || st == nil || st.t0 == 0 || !r.on.Load() {
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
	if r == nil || st == nil || st.t0 == 0 || !r.on.Load() {
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
		h := &r.stages[s]
		snap := StageSnapshot{
			Stage: s.String(),
			Count: h.count.Load(),
			SumNs: h.sumNs.Load(),
			MaxNs: h.maxNs.Load(),
		}
		var counts [numBuckets]uint64
		for i := 0; i < numBuckets; i++ {
			counts[i] = h.counts[i].Load()
			if counts[i] == 0 {
				continue
			}
			snap.Buckets = append(snap.Buckets, BucketSnapshot{
				UpperNs:      BucketBound(i),
				Count:        counts[i],
				ExemplarSpan: h.exemplars[i].Load(),
			})
		}
		snap.P50Ns = quantileNs(counts, snap.Count, snap.MaxNs, 0.50)
		snap.P90Ns = quantileNs(counts, snap.Count, snap.MaxNs, 0.90)
		snap.P99Ns = quantileNs(counts, snap.Count, snap.MaxNs, 0.99)
		out = append(out, snap)
	}
	return out
}

// StageCount returns the observation count of one stage (0 on nil).
func (r *Recorder) StageCount(stage Stage) uint64 {
	if r == nil || stage >= NumStages {
		return 0
	}
	return r.stages[stage].count.Load()
}

// quantileNs estimates the q-quantile from power-of-two bucket counts
// by linear interpolation inside the landing bucket; the overflow
// bucket interpolates toward the observed maximum.
func quantileNs(counts [numBuckets]uint64, total uint64, maxNs int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		c := counts[i]
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		lo := bucketLower(i)
		hi := BucketBound(i)
		if i == numBuckets-1 || hi > maxNs {
			hi = maxNs // never report beyond what was observed
		}
		if hi < lo {
			return lo
		}
		frac := float64(rank-cum) / float64(c)
		return lo + int64(frac*float64(hi-lo))
	}
	return maxNs
}
