package trace

import (
	"fmt"
	"testing"

	"repro/internal/astypes"
)

// BenchmarkTraceRecord measures the enabled record path — the cost
// every traced message pays at each pipeline stage. The acceptance bar
// is 0 allocs/op.
func BenchmarkTraceRecord(b *testing.B) {
	r := NewRecorder(4096) // wall clock on: the live-path configuration
	e := testEvent(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
}

// BenchmarkTraceRecordDisabled is the baseline an untraced run pays on
// the session receive path: a nil recorder, the default for binaries
// built without -trace-events, costs one comparison and 0 allocs.
func BenchmarkTraceRecordDisabled(b *testing.B) {
	var r *Recorder
	e := testEvent(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
}

// BenchmarkTraceRecordAlarm measures one alarm's forensic capture on a
// full ring of other prefixes, as in a storm of forged origins for
// distinct prefixes: the timeline walk reads every slot's prefix word
// but copies only the matching slots, so bytes/op must not grow with
// the ring.
func BenchmarkTraceRecordAlarm(b *testing.B) {
	for _, size := range []int{4096, 1 << 16} {
		b.Run(fmt.Sprintf("ring=%d", size), func(b *testing.B) {
			r := NewRecorder(size) // wall clock on: the live-path configuration
			other := testEvent(0)
			other.Prefix = astypes.MustPrefix(0x0a000000, 8)
			for i := 0; i < r.Cap(); i++ {
				r.Record(other)
			}
			bundle := AlarmBundle{Origin: 64999, Verdict: "conflict", Existing: []uint32{65001}, Received: []uint32{64999}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.RecordAlarm(astypes.MustPrefix(0xc0000000|uint32(i)<<8&0x3fffff00, 24), bundle)
			}
		})
	}
}

// BenchmarkTraceAppendJSON measures the admin-endpoint event encoder.
func BenchmarkTraceAppendJSON(b *testing.B) {
	e := testEvent(1)
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEventJSON(buf[:0], &e)
	}
}
