package trace

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/astypes"
)

var testPrefix = astypes.MustPrefix(0x83b30000, 16) // 131.179.0.0/16

func testEvent(i int) Event {
	return Event{
		VNanos: int64(i) * 1000,
		Span:   uint64(i),
		Kind:   KindRecv,
		Detail: DetailNone,
		Node:   100,
		Peer:   65001,
		Origin: 65001,
		Prefix: testPrefix,
		Aux:    uint32(i),
	}
}

func TestRecordAndEvents(t *testing.T) {
	r := NewRecorder(16, WithoutWallClock())
	for i := 0; i < 5; i++ {
		r.Record(testEvent(i))
	}
	events := r.Events()
	if len(events) != 5 {
		t.Fatalf("Events: got %d, want 5", len(events))
	}
	for i, e := range events {
		want := testEvent(i)
		want.Seq = uint64(i)
		if e != want {
			t.Errorf("event %d: got %+v, want %+v", i, e, want)
		}
	}
	if r.Seq() != 5 {
		t.Errorf("Seq: got %d, want 5", r.Seq())
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped: got %d, want 0", r.Dropped())
	}
}

// TestFullWidthASNs: Node, Peer and Origin above 65535 — the 70k-AS
// simulated topologies, a 4-octet daemon AS — read back whole, leave
// Kind and Detail intact, and still match the prefix-filtered timeline.
func TestFullWidthASNs(t *testing.T) {
	r := NewRecorder(16, WithoutWallClock())
	want := Event{
		Span:   9,
		Kind:   KindValidate,
		Detail: DetailConflict,
		Node:   70000,
		Peer:   70000,
		Origin: 4200000000,
		Prefix: testPrefix,
		Aux:    0xffffffff,
	}
	r.Record(want)
	r.Record(Event{Kind: KindRecv, Node: 1, Prefix: astypes.MustPrefix(0x0a000000, 8)})
	if got := r.Events()[0]; got != want {
		t.Fatalf("event: got %+v, want %+v", got, want)
	}
	id := r.RecordAlarm(testPrefix, AlarmBundle{Node: 70000, FromPeer: 70000, Origin: 4200000000, Verdict: "conflict"})
	b, _ := r.Alarm(id)
	if len(b.Timeline) != 2 || b.Timeline[0] != want {
		t.Fatalf("timeline: got %+v, want the event then the alarm", b.Timeline)
	}
	if a := b.Timeline[1]; a.Kind != KindAlarm || a.Node != 70000 || a.Peer != 70000 || a.Origin != 4200000000 {
		t.Errorf("alarm event: got %+v", a)
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRecorder(16, WithoutWallClock())
	const total = 40
	for i := 0; i < total; i++ {
		r.Record(testEvent(i))
	}
	events := r.Events()
	if len(events) != 16 {
		t.Fatalf("Events after wrap: got %d, want 16", len(events))
	}
	// Oldest retained event is total-16; newest is total-1.
	for i, e := range events {
		wantIdx := total - 16 + i
		if e.Span != uint64(wantIdx) || e.Seq != uint64(wantIdx) {
			t.Errorf("event %d: span=%d seq=%d, want both %d", i, e.Span, e.Seq, wantIdx)
		}
	}
	if got := r.Dropped(); got != total-16 {
		t.Errorf("Dropped: got %d, want %d", got, total-16)
	}
}

func TestSizeRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {1000, 1024},
	} {
		if got := NewRecorder(tc.ask).Cap(); got != tc.want {
			t.Errorf("NewRecorder(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestDisabledAndNil(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	nilRec.Record(testEvent(0)) // must not panic
	if nilRec.Events() != nil || nilRec.Seq() != 0 || nilRec.Dropped() != 0 {
		t.Error("nil recorder returned non-zero state")
	}
	if id := nilRec.RecordAlarm(testPrefix, AlarmBundle{}); id != -1 {
		t.Errorf("nil RecordAlarm: got %d, want -1", id)
	}
	if nilRec.Alarms() != nil || nilRec.AlarmCount() != 0 {
		t.Error("nil recorder returned alarms")
	}
	if _, ok := nilRec.Alarm(0); ok {
		t.Error("nil recorder found an alarm")
	}
}

func TestWallClockStamping(t *testing.T) {
	r := NewRecorder(16)
	r.Record(testEvent(0))
	events := r.Events()
	if len(events) != 1 || events[0].Nanos == 0 {
		t.Fatalf("wall-clock recorder left Nanos unset: %+v", events)
	}

	d := NewRecorder(16, WithoutWallClock())
	d.Record(testEvent(0))
	if e := d.Events(); len(e) != 1 || e[0].Nanos != 0 {
		t.Fatalf("WithoutWallClock recorder stamped Nanos: %+v", e)
	}
}

func TestRecordAlarmBundle(t *testing.T) {
	r := NewRecorder(64, WithoutWallClock())
	// Build a plausible timeline: recv + validate for the prefix, plus
	// noise for an unrelated prefix that must not leak into the bundle.
	other := astypes.MustPrefix(0x0a000000, 8)
	r.Record(Event{Span: 7, Kind: KindRecv, Node: 100, Peer: 64999, Origin: 64999, Prefix: testPrefix, Aux: 1})
	r.Record(Event{Span: 3, Kind: KindRecv, Node: 100, Peer: 65001, Origin: 65001, Prefix: other})
	r.Record(Event{Span: 7, Kind: KindValidate, Detail: DetailConflict, Node: 100, Peer: 64999, Origin: 64999, Prefix: testPrefix})

	id := r.RecordAlarm(testPrefix, AlarmBundle{
		VNanos:   42,
		Span:     7,
		Node:     100,
		FromPeer: 64999,
		Origin:   64999,
		Verdict:  "conflict",
		Existing: []uint32{65001},
		Received: []uint32{64999},
		Path:     []uint32{64999},
	})
	if id != 0 {
		t.Fatalf("RecordAlarm: got id %d, want 0", id)
	}
	if r.AlarmCount() != 1 {
		t.Fatalf("AlarmCount: got %d, want 1", r.AlarmCount())
	}
	b, ok := r.Alarm(0)
	if !ok {
		t.Fatal("Alarm(0) not found")
	}
	if b.Prefix != "131.179.0.0/16" {
		t.Errorf("bundle prefix: got %q", b.Prefix)
	}
	if want := []uint32{64999, 65001}; !reflect.DeepEqual(b.Origins, want) {
		t.Errorf("bundle origins: got %v, want %v", b.Origins, want)
	}
	// Timeline: the two testPrefix events plus the alarm event itself,
	// in ring order, excluding the unrelated prefix.
	if len(b.Timeline) != 3 {
		t.Fatalf("timeline: got %d events, want 3: %+v", len(b.Timeline), b.Timeline)
	}
	if b.Timeline[0].Kind != KindRecv || b.Timeline[1].Kind != KindValidate {
		t.Errorf("timeline order wrong: %+v", b.Timeline)
	}
	last := b.Timeline[2]
	if last.Kind != KindAlarm || last.Detail != DetailConflict || last.Aux != 0 {
		t.Errorf("timeline must end with the alarm event: %+v", last)
	}
	for _, e := range b.Timeline {
		if e.Prefix != testPrefix {
			t.Errorf("foreign prefix leaked into timeline: %+v", e)
		}
	}
	// The alarm event is also visible in the public ring.
	events := r.Events()
	if got := events[len(events)-1]; got.Kind != KindAlarm {
		t.Errorf("ring does not end with the alarm event: %+v", got)
	}
}

// TestAlarmTimelineMatchesEvents: on a wrapped ring with interleaved
// prefixes, the in-place timeline is exactly Events() filtered to the
// alarmed prefix, Seq included.
func TestAlarmTimelineMatchesEvents(t *testing.T) {
	r := NewRecorder(64, WithoutWallClock())
	prefixes := []astypes.Prefix{testPrefix, astypes.MustPrefix(0x0a000000, 8), astypes.MustPrefix(0x83b30000, 24)}
	for i := 0; i < 200; i++ {
		e := testEvent(i)
		e.Prefix = prefixes[(i*i+i/3)%len(prefixes)]
		r.Record(e)
	}
	if r.Dropped() == 0 {
		t.Fatal("ring did not wrap")
	}
	id := r.RecordAlarm(testPrefix, AlarmBundle{Origin: 64999, Verdict: "conflict"})
	b, _ := r.Alarm(id)
	var want []Event
	for _, e := range r.Events() {
		if e.Prefix == testPrefix {
			want = append(want, e)
		}
	}
	if len(want) < 2 {
		t.Fatalf("fixture too thin: %d events for the prefix", len(want))
	}
	if !reflect.DeepEqual(b.Timeline, want) {
		t.Errorf("timeline differs from the filtered ring:\n got %+v\nwant %+v", b.Timeline, want)
	}
}

// TestAlarmTimelineUnderConcurrentRecord: while writers wrap the ring,
// every timeline holds only the alarmed prefix, in strictly increasing
// Seq order. Run under -race.
func TestAlarmTimelineUnderConcurrentRecord(t *testing.T) {
	r := NewRecorder(256, WithoutWallClock(), WithMaxAlarms(1))
	other := astypes.MustPrefix(0x0a000000, 8)
	const writers, perWriter = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := testEvent(i)
				if (i+w)%3 != 0 {
					e.Prefix = other
				}
				r.Record(e)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for alarms := 0; ; alarms++ {
		select {
		case <-done:
			if alarms == 0 {
				t.Fatal("no alarm raced the writers")
			}
			return
		default:
		}
		id := r.RecordAlarm(testPrefix, AlarmBundle{Verdict: "conflict"})
		b, _ := r.Alarm(id)
		for i, e := range b.Timeline {
			if e.Prefix != testPrefix {
				t.Fatalf("alarm %d: foreign event in timeline: %+v", id, e)
			}
			if i > 0 && e.Seq <= b.Timeline[i-1].Seq {
				t.Fatalf("alarm %d: Seq %d after %d", id, e.Seq, b.Timeline[i-1].Seq)
			}
		}
	}
}

// TestRecordAlarmAllocsIndependentOfRing: on a 65 536-slot ring full
// of other prefixes, capturing a bundle copies only the matching slots,
// not the ring (which would be ~4.7 MB per alarm).
func TestRecordAlarmAllocsIndependentOfRing(t *testing.T) {
	// One retained bundle, so the bundle log's own growth stays out of
	// the per-call bytes.
	r := NewRecorder(1<<16, WithoutWallClock(), WithMaxAlarms(1))
	other := testEvent(0)
	other.Prefix = astypes.MustPrefix(0x0a000000, 8)
	for i := 0; i < r.Cap(); i++ {
		r.Record(other)
	}
	// A fresh prefix per alarm, as in a storm, so each timeline is the
	// alarm event alone.
	next := uint32(0)
	alarm := func() {
		next++
		r.RecordAlarm(astypes.MustPrefix(0xc0000000|next<<8, 24), AlarmBundle{
			Origin: 64999, Verdict: "conflict", Existing: []uint32{65001}, Received: []uint32{64999},
		})
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, alarm)
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun adds one warm-up call
	t.Logf("RecordAlarm on a full 64k ring: %d B/call, %v allocs/call", perCall, allocs)
	if perCall >= 4096 {
		t.Errorf("RecordAlarm on a full 64k ring: %d B/call (%v allocs), want < 4 KiB", perCall, allocs)
	}
	if allocs > 16 {
		t.Errorf("RecordAlarm: %v allocs/call, want <= 16", allocs)
	}
}

func TestRecordAlarmOriginNotListed(t *testing.T) {
	r := NewRecorder(16, WithoutWallClock())
	r.RecordAlarm(testPrefix, AlarmBundle{Origin: 64999, Verdict: "origin-not-listed"})
	events := r.Events()
	if len(events) != 1 || events[0].Detail != DetailOriginNotListed {
		t.Fatalf("alarm event detail: %+v", events)
	}
}

func TestAlarmEviction(t *testing.T) {
	r := NewRecorder(16, WithoutWallClock(), WithMaxAlarms(2))
	for i := 0; i < 5; i++ {
		if id := r.RecordAlarm(testPrefix, AlarmBundle{Origin: uint32(64990 + i), Verdict: "conflict"}); id != i {
			t.Fatalf("alarm %d got id %d", i, id)
		}
	}
	if r.AlarmCount() != 5 {
		t.Errorf("AlarmCount: got %d, want 5", r.AlarmCount())
	}
	alarms := r.Alarms()
	if len(alarms) != 2 || alarms[0].ID != 3 || alarms[1].ID != 4 {
		t.Fatalf("retained alarms: %+v", alarms)
	}
	if _, ok := r.Alarm(0); ok {
		t.Error("evicted alarm 0 still retrievable")
	}
	if b, ok := r.Alarm(4); !ok || b.Origin != 64994 {
		t.Errorf("alarm 4: ok=%v bundle=%+v", ok, b)
	}
}

func TestConcurrentRecord(t *testing.T) {
	r := NewRecorder(256, WithoutWallClock())
	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(testEvent(i))
				if i%64 == 0 {
					r.Events() // concurrent snapshots must be safe
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Seq(); got != writers*perWriter {
		t.Fatalf("Seq after soak: got %d, want %d", got, writers*perWriter)
	}
	// A quiescent ring must read back fully: all marks published.
	if got := len(r.Events()); got != 256 {
		t.Fatalf("Events after soak: got %d, want 256", got)
	}
}

// TestRecordAllocs is the in-tree guard for the acceptance criterion:
// the record path is allocation-free through a live and a nil recorder.
func TestRecordAllocs(t *testing.T) {
	r := NewRecorder(1024) // wall clock on: the live-path configuration
	e := testEvent(1)
	if allocs := testing.AllocsPerRun(1000, func() { r.Record(e) }); allocs != 0 {
		t.Errorf("Record (enabled): %v allocs/op, want 0", allocs)
	}
	var nilRec *Recorder
	if allocs := testing.AllocsPerRun(1000, func() { nilRec.Record(e) }); allocs != 0 {
		t.Errorf("Record (nil): %v allocs/op, want 0", allocs)
	}
}

func TestAppendEventJSONAllocs(t *testing.T) {
	e := testEvent(1)
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(1000, func() { buf = AppendEventJSON(buf[:0], &e) }); allocs != 0 {
		t.Errorf("AppendEventJSON: %v allocs/op, want 0", allocs)
	}
}

func TestHelpers(t *testing.T) {
	if got := ASNs(nil); got != nil {
		t.Errorf("ASNs(nil) = %v", got)
	}
	if got := ASNs([]astypes.ASN{65001, 64999}); !reflect.DeepEqual(got, []uint32{65001, 64999}) {
		t.Errorf("ASNs = %v", got)
	}
	p := astypes.NewSeqPath(100, 200, 65001)
	if got := PathASNs(p); !reflect.DeepEqual(got, []uint32{100, 200, 65001}) {
		t.Errorf("PathASNs = %v", got)
	}
	if got := unionOrigins([]uint32{65001, 0}, []uint32{64999, 65001}, 64999); !reflect.DeepEqual(got, []uint32{64999, 65001}) {
		t.Errorf("unionOrigins = %v", got)
	}
}

var timelineSink []Event

// timelineGrowthAllocs counts the allocations of growing an n-event
// timeline one append at a time from nil, as RecordAlarm does.
func timelineGrowthAllocs(n int) float64 {
	return testing.AllocsPerRun(1, func() {
		timelineSink = nil
		for i := 0; i < n; i++ {
			timelineSink = append(timelineSink, Event{})
		}
	})
}

// TestRecordAlarmAllocsIndependentOfMatches: apart from growing the
// timeline slice, an alarm allocates the same whether two ring slots
// match its prefix or a thousand do, so copying a matching slot out of
// the ring allocates nothing.
func TestRecordAlarmAllocsIndependentOfMatches(t *testing.T) {
	other := astypes.MustPrefix(0x0a000000, 24)
	fixed := func(matches int) float64 {
		r := NewRecorder(4096, WithoutWallClock(), WithMaxAlarms(1))
		for i := 0; i < 4000; i++ {
			e := testEvent(i)
			if i >= matches {
				e.Prefix = other
			}
			r.Record(e)
		}
		b := AlarmBundle{Verdict: "conflict", Origin: 9, Existing: []uint32{1}, Received: []uint32{9}}
		allocs := testing.AllocsPerRun(1, func() { r.RecordAlarm(testPrefix, b) })
		alarms := r.Alarms()
		timeline := alarms[len(alarms)-1].Timeline
		if want := matches + 2; len(timeline) != want { // both RecordAlarm calls' alarm events
			t.Fatalf("timeline holds %d events, want %d", len(timeline), want)
		}
		return allocs - timelineGrowthAllocs(len(timeline))
	}
	few, many := fixed(0), fixed(1000)
	if few != many {
		t.Errorf("RecordAlarm allocates %v beyond timeline growth with 2 matching slots, %v with 1002", few, many)
	}
}

// TestAlarmsWhileRecording reads the retained bundles while alarms are
// raised and the oldest evicted: Alarms must take alarmMu, which
// RecordAlarm holds while it appends and evicts. Run under -race.
func TestAlarmsWhileRecording(t *testing.T) {
	const raised, kept = 500, 8
	r := NewRecorder(256, WithoutWallClock(), WithMaxAlarms(kept))
	done := make(chan struct{})
	go func() {
		defer close(done)
		b := AlarmBundle{Verdict: "conflict", Origin: 9, Existing: []uint32{1}, Received: []uint32{9}}
		for range raised {
			r.RecordAlarm(testPrefix, b)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for _, b := range r.Alarms() {
			if b.Prefix != testPrefix.String() {
				t.Fatalf("read a torn bundle: %+v", b)
			}
		}
	}
	alarms := r.Alarms()
	if len(alarms) != kept || alarms[kept-1].ID != raised-1 {
		t.Errorf("retained %d bundles ending at ID %d, want %d ending at %d",
			len(alarms), alarms[len(alarms)-1].ID, kept, raised-1)
	}
}
