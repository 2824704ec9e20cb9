package sim

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// recorder collects dispatched typed events in order.
type recorder struct {
	got []Typed
}

func (r *recorder) Dispatch(ev Typed) { r.got = append(r.got, ev) }

func TestTypedEventsDispatchInOrder(t *testing.T) {
	e := NewEngine()
	rec := &recorder{}
	e.SetDispatcher(rec)
	e.ScheduleTyped(30*time.Millisecond, Typed{Kind: 3})
	e.ScheduleTyped(10*time.Millisecond, Typed{Kind: 1})
	e.ScheduleTyped(20*time.Millisecond, Typed{Kind: 2})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 3 || rec.got[0].Kind != 1 || rec.got[1].Kind != 2 || rec.got[2].Kind != 3 {
		t.Errorf("dispatch order = %v", rec.got)
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestTypedAndClosureEventsShareSequenceSpace(t *testing.T) {
	// Closure and typed events at the same instant must fire in
	// scheduling order — they share one seq counter.
	e := NewEngine()
	var order []int
	e.SetDispatcher(dispatchFunc(func(ev Typed) { order = append(order, int(ev.A)) }))
	for i := 0; i < 10; i++ {
		i := i
		if i%2 == 0 {
			e.Schedule(5*time.Millisecond, func() { order = append(order, i) })
		} else {
			e.ScheduleTyped(5*time.Millisecond, Typed{A: uint32(i)})
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed same-time events out of scheduling order: %v", order)
		}
	}
}

type dispatchFunc func(Typed)

func (f dispatchFunc) Dispatch(ev Typed) { f(ev) }

func TestTypedNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	var at time.Duration = -1
	e.SetDispatcher(dispatchFunc(func(Typed) { at = e.Now() }))
	e.Schedule(10*time.Millisecond, func() {
		e.ScheduleTyped(-5*time.Millisecond, Typed{})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10*time.Millisecond {
		t.Errorf("negative-delay typed event ran at %v", at)
	}
}

// TestHeapOrderRandomized drives the queue with a large random schedule
// (including duplicate timestamps) and asserts events fire in (time,
// scheduling order) order — the determinism contract. FuzzEngineOrder
// covers events scheduled while the queue drains.
func TestHeapOrderRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEngine()
	const n = 5000
	type stamp struct {
		at  time.Duration
		seq int
	}
	var fired []stamp
	seq := 0
	for i := 0; i < n; i++ {
		d := time.Duration(rng.Intn(50)) * time.Millisecond
		s := seq
		seq++
		e.Schedule(d, func() { fired = append(fired, stamp{e.Now(), s}) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != n {
		t.Fatalf("fired %d of %d", len(fired), n)
	}
	for i := 1; i < n; i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
			t.Fatalf("event %d fired out of order: %v then %v", i, a, b)
		}
	}
}

func TestReset(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(123)
	rec := &recorder{}
	e.SetDispatcher(rec)
	e.Schedule(time.Millisecond, func() {})
	e.ScheduleTyped(2*time.Millisecond, Typed{Kind: 9})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Schedule(time.Hour, func() { t.Error("stale event survived Reset") })
	e.Reset()
	if e.Now() != 0 || e.Processed() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: now=%v processed=%d pending=%d", e.Now(), e.Processed(), e.Pending())
	}
	// The engine must be fully reusable: same schedule, same outcome,
	// and the retained dispatcher and event limit still apply.
	rec.got = rec.got[:0]
	e.ScheduleTyped(2*time.Millisecond, Typed{Kind: 9})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 1 || rec.got[0].Kind != 9 {
		t.Errorf("post-Reset dispatch = %v", rec.got)
	}
	if e.Now() != 2*time.Millisecond {
		t.Errorf("post-Reset Now = %v", e.Now())
	}
	e.Reset()
	for i := 0; i < 124; i++ {
		e.Schedule(0, func() {})
	}
	if err := e.Run(); !errors.Is(err, ErrEventLimit) {
		t.Errorf("event limit 123 not retained across Reset: err = %v", err)
	}
}

func TestSetEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(1)
	e.Schedule(0, func() {})
	e.Schedule(0, func() {})
	if err := e.Run(); err == nil {
		t.Fatal("expected ErrEventLimit")
	}
	e.Reset()
	e.SetEventLimit(0) // restores the default
	for i := 0; i < 10; i++ {
		e.Schedule(0, func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("default limit should not trip: %v", err)
	}
}

// TestTypedSteadyStateAllocs pins the tentpole guarantee: once the
// queue has reached its high-water capacity, scheduling and running
// typed events allocates nothing.
func TestTypedSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	e.SetDispatcher(dispatchFunc(func(Typed) {}))
	// Warm the queue to its high-water mark.
	for i := 0; i < 1024; i++ {
		e.ScheduleTyped(time.Duration(i)*time.Microsecond, Typed{A: uint32(i)})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.ScheduleTyped(time.Duration(i%7)*time.Microsecond, Typed{Kind: 1, A: uint32(i)})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("typed schedule+run allocates %v per run, want 0", allocs)
	}
}

// benchDispatch is a minimal dispatcher that self-propagates events so
// the benchmark measures steady-state schedule+fire cost.
type benchDispatch struct {
	e    *Engine
	left int
}

func (d *benchDispatch) Dispatch(ev Typed) {
	if d.left > 0 {
		d.left--
		d.e.ScheduleTyped(time.Millisecond, ev)
	}
}

// BenchmarkEngineEvents is the typed steady-state path: each fired
// event schedules its successor, as delivered BGP messages do.
func BenchmarkEngineEvents(b *testing.B) {
	e := NewEngine()
	d := &benchDispatch{e: e, left: b.N}
	e.SetDispatcher(d)
	e.SetEventLimit(uint64(b.N) + 16)
	b.ReportAllocs()
	b.ResetTimer()
	e.ScheduleTyped(0, Typed{Kind: 1, A: 2, B: 3})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// delayDispatch is benchDispatch with simbgp's delay shape: each event
// schedules its successor on one of 25 whole-millisecond delays in
// [10, 35) ms, picked from a counter so the run is deterministic.
type delayDispatch struct {
	e    *Engine
	left int
	n    uint32
}

func (d *delayDispatch) Dispatch(ev Typed) {
	if d.left > 0 {
		d.left--
		d.n++
		d.e.ScheduleTyped(10*time.Millisecond+time.Duration(d.n*2654435761%25)*time.Millisecond, ev)
	}
}

// BenchmarkEngineEventsManyPending is the traffic the engine serves in
// a BGP sweep: thousands of events pending over 25 delays, each fired
// event scheduling a successor, so every instant holds many events.
func BenchmarkEngineEventsManyPending(b *testing.B) {
	const pending = 4096
	e := NewEngine()
	// The queue starts full, so b.N firings take b.N-pending successors.
	d := &delayDispatch{e: e, left: pending}
	e.SetDispatcher(d)
	e.SetEventLimit(uint64(b.N) + pending)
	for i := 0; i < pending; i++ {
		d.Dispatch(Typed{Kind: 1, A: uint32(i)})
	}
	d.left = max(b.N-pending, 0)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineEventsBaseline is the pre-change shape: each event is
// a freshly allocated closure capturing its payload, the way message
// delivery used to schedule `func() { dst.receive(msg) }`.
func BenchmarkEngineEventsBaseline(b *testing.B) {
	e := NewEngine()
	e.SetEventLimit(uint64(b.N) + 16)
	left := b.N
	var fire func(payload Typed)
	fire = func(payload Typed) {
		if left > 0 {
			left--
			next := payload
			e.Schedule(time.Millisecond, func() { fire(next) })
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(0, func() { fire(Typed{Kind: 1, A: 2, B: 3}) })
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
