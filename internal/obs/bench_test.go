package obs

import (
	"testing"
	"time"
)

// BenchmarkObsRecord pins the per-observation cost of the enabled
// record path; the acceptance bar is ≤200ns and 0 allocs per stamp.
func BenchmarkObsRecord(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(StageDecode, uint64(i), 150*time.Nanosecond)
	}
}

// BenchmarkObsRecordBaseline is the no-op comparison: the same call
// against a nil recorder, i.e. the cost instrumented code pays when
// observation is off entirely.
func BenchmarkObsRecordBaseline(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(StageDecode, uint64(i), 150*time.Nanosecond)
	}
}

// BenchmarkObsStamp measures a full message lifecycle: Start at ingest,
// three crossings, and the cumulative alarm End — five clock reads.
func BenchmarkObsStamp(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := r.Start(uint64(i))
		r.Cross(&st, StageDecode)
		r.Cross(&st, StageValidate)
		r.Cross(&st, StageRIB)
		r.End(&st, StageAlarm)
	}
}

// BenchmarkObsStampBaseline is the same lifecycle against a nil
// recorder: one comparison per call.
func BenchmarkObsStampBaseline(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := r.Start(uint64(i))
		r.Cross(&st, StageDecode)
		r.Cross(&st, StageValidate)
		r.Cross(&st, StageRIB)
		r.End(&st, StageAlarm)
	}
}

// BenchmarkObsCross isolates one stage crossing (one clock read plus
// one Record) — the unit the ≤200ns acceptance bound applies to.
func BenchmarkObsCross(b *testing.B) {
	r := NewRecorder()
	st := r.Start(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Cross(&st, StageSession)
	}
}

// BenchmarkObsSnapshot prices the read side (scrape-time only, never on
// the hot path).
func BenchmarkObsSnapshot(b *testing.B) {
	r := NewRecorder()
	for i := 0; i < 10000; i++ {
		r.Record(StageDecode, uint64(i), time.Duration(i)*time.Nanosecond)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if snaps := r.Snapshot(); len(snaps) != int(NumStages) {
			b.Fatal("bad snapshot")
		}
	}
}
