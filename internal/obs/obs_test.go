package obs

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageDecode:   "decode",
		StageSession:  "session",
		StageValidate: "validate",
		StageRIB:      "rib",
		StageAlarm:    "alarm",
		NumStages:     "unknown",
	}
	for s, name := range want {
		if got := s.String(); got != name {
			t.Errorf("Stage(%d).String() = %q, want %q", s, got, name)
		}
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	r := NewRecorder()
	r.Record(StageDecode, 7, 100*time.Nanosecond)
	r.Record(StageDecode, 8, 100*time.Nanosecond)
	r.Record(StageDecode, 9, 10*time.Millisecond)

	snaps := r.Snapshot()
	if len(snaps) != int(NumStages) {
		t.Fatalf("Snapshot stages = %d, want %d", len(snaps), NumStages)
	}
	dec := snaps[StageDecode]
	if dec.Stage != "decode" || dec.Count != 3 {
		t.Fatalf("decode snapshot = %+v, want stage decode count 3", dec)
	}
	if dec.MaxNs != int64(10*time.Millisecond) {
		t.Errorf("MaxNs = %d, want %d", dec.MaxNs, 10*time.Millisecond)
	}
	if dec.SumNs != int64(10*time.Millisecond+200*time.Nanosecond) {
		t.Errorf("SumNs = %d", dec.SumNs)
	}
	if len(dec.Buckets) != 2 {
		t.Fatalf("buckets = %+v, want 2 non-empty", dec.Buckets)
	}
	// The fast bucket keeps a recent landing span, the slow one keeps 9.
	if got := dec.Buckets[0].ExemplarSpan; got != 8 {
		t.Errorf("fast-bucket exemplar = %d, want 8 (last writer)", got)
	}
	if got := dec.Buckets[1].ExemplarSpan; got != 9 {
		t.Errorf("slow-bucket exemplar = %d, want 9", got)
	}
	// p50 sits in the fast bucket, p99 in the slow one.
	if bound := int64(telemetry.BucketBound(0)); dec.P50Ns > bound {
		t.Errorf("P50Ns = %d, want ≤ %d", dec.P50Ns, bound)
	}
	if dec.P99Ns < int64(time.Millisecond) {
		t.Errorf("P99Ns = %d, want ≥ 1ms", dec.P99Ns)
	}
	if dec.P99Ns > dec.MaxNs {
		t.Errorf("P99Ns = %d exceeds max %d", dec.P99Ns, dec.MaxNs)
	}

	// Untouched stages still appear, with zero counts.
	if al := snaps[StageAlarm]; al.Stage != "alarm" || al.Count != 0 || len(al.Buckets) != 0 {
		t.Errorf("alarm snapshot = %+v, want empty", al)
	}
}

func TestRecordSpanZeroKeepsExemplar(t *testing.T) {
	r := NewRecorder()
	r.Record(StageRIB, 42, time.Nanosecond)
	r.Record(StageRIB, 0, time.Nanosecond)
	snap := r.Snapshot()[StageRIB]
	if len(snap.Buckets) != 1 || snap.Buckets[0].ExemplarSpan != 42 {
		t.Fatalf("buckets = %+v, want one bucket with exemplar 42", snap.Buckets)
	}
}

func TestStampCrossAndEnd(t *testing.T) {
	r := NewRecorder()
	st := r.Start(5)
	if !st.Started() || st.Span != 5 {
		t.Fatalf("Start → %+v, want started span 5", st)
	}
	r.Cross(&st, StageDecode)
	r.Cross(&st, StageSession)
	r.End(&st, StageAlarm)
	r.Cross(&st, StageRIB) // End must not have consumed the stamp
	for _, s := range []Stage{StageDecode, StageSession, StageRIB, StageAlarm} {
		if got := r.StageCount(s); got != 1 {
			t.Errorf("stage %s count = %d, want 1", s, got)
		}
	}
	// The cumulative alarm reading covers the decode+session deltas.
	snaps := r.Snapshot()
	if snaps[StageAlarm].SumNs < snaps[StageDecode].SumNs {
		t.Errorf("alarm sum %d < decode sum %d — End should be cumulative",
			snaps[StageAlarm].SumNs, snaps[StageDecode].SumNs)
	}
}

func TestNilAndDisabledAreInert(t *testing.T) {
	var nilRec *Recorder
	st := nilRec.Start(1)
	if st.Started() {
		t.Error("nil recorder minted a started stamp")
	}
	if st.Span != 1 {
		t.Error("nil recorder dropped the span")
	}
	nilRec.Cross(&st, StageDecode)
	nilRec.End(&st, StageAlarm)
	nilRec.Record(StageDecode, 1, time.Second)
	if nilRec.Snapshot() != nil {
		t.Error("nil Snapshot not nil")
	}
	if nilRec.Enabled() {
		t.Error("nil recorder enabled")
	}
}

func TestRecordOutOfRangeStage(t *testing.T) {
	r := NewRecorder()
	r.Record(NumStages, 1, time.Second)
	r.Record(Stage(200), 1, time.Second)
	for _, s := range r.Snapshot() {
		if s.Count != 0 {
			t.Fatalf("out-of-range stage leaked into %s", s.Stage)
		}
	}
}

func TestNegativeDurationClampsToZero(t *testing.T) {
	r := NewRecorder()
	r.Record(StageDecode, 1, -time.Second)
	snap := r.Snapshot()[StageDecode]
	if snap.Count != 1 || snap.SumNs != 0 {
		t.Fatalf("snapshot = %+v, want count 1 sum 0", snap)
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	r := NewRecorder()
	r.Record(StageValidate, 3, 700*time.Nanosecond)
	snap := r.Snapshot()[StageValidate]
	if len(snap.Buckets) != 1 {
		t.Fatalf("buckets = %+v, want one", snap.Buckets)
	}
	// 700ns lands in [512ns, 1023ns]; every estimate stays inside it
	// and never passes the observed maximum.
	for _, q := range []int64{snap.P50Ns, snap.P90Ns, snap.P99Ns} {
		if q < 512 || q > snap.MaxNs {
			t.Errorf("quantile %d outside [512, %d]", q, snap.MaxNs)
		}
	}
}

// The record path must stay allocation-free.
func TestRecordPathAllocFree(t *testing.T) {
	r := NewRecorder()
	if n := testing.AllocsPerRun(1000, func() {
		r.Record(StageDecode, 1, 100*time.Nanosecond)
	}); n != 0 {
		t.Errorf("Record allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		st := r.Start(2)
		if !r.Enabled() || !st.Started() {
			t.Fatal("enabled recorder did not start the stamp")
		}
		r.Cross(&st, StageDecode)
		r.Cross(&st, StageSession)
		r.End(&st, StageAlarm)
	}); n != 0 {
		t.Errorf("Start/Cross/End allocates %.1f per run, want 0", n)
	}
	var nilRec *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		st := nilRec.Start(3)
		nilRec.Cross(&st, StageDecode)
	}); n != 0 {
		t.Errorf("nil-recorder path allocates %.1f per run, want 0", n)
	}
}
