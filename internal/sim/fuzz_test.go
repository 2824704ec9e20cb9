package sim

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// fuzzDelays are the delays a script can pick: zero and the negative
// delays land on the instant being drained, the small ones on instants
// that may already hold events, and the far one opens an instant that
// later, nearer ones must overtake.
var fuzzDelays = [...]time.Duration{0, -time.Millisecond, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 7 * time.Millisecond, time.Hour, -time.Hour}

// fuzzSpec is how one event, numbered in creation order, is scheduled
// and what it does when it fires.
type fuzzSpec struct {
	delay    time.Duration
	typed    bool
	children int
}

// maxFuzzScript bounds a script, and so the events one run creates.
const maxFuzzScript = 256

// specOf decodes event id's byte of the script: the delay in the low
// three bits, typed or closure in the fourth, and the number of events
// it schedules when it fires (0-3) in the top two. Events past the end
// of the script are closures at delay 0 that schedule nothing, so every
// script terminates.
func specOf(script []byte, id int) fuzzSpec {
	if id >= len(script) {
		return fuzzSpec{}
	}
	b := script[id]
	return fuzzSpec{delay: fuzzDelays[b&7], typed: b&8 != 0, children: int(b >> 6)}
}

// firing is one fired event: when, and which (its creation number).
type firing struct {
	at time.Duration
	id int
}

// fuzzRoots is how many events a script schedules before Run: one to
// four, from the script's first byte.
func fuzzRoots(script []byte) int {
	if len(script) == 0 {
		return 1
	}
	return 1 + int(script[0]&3)
}

// referenceOrder is the determinism contract spelled out: of the
// pending events, the one due earliest fires next, and among those due
// at the same time the one created first. It also returns, after each
// firing, how many events are still pending.
func referenceOrder(script []byte) (fired []firing, pendingAfter []int) {
	var pending []firing // creation order
	next := 0
	create := func(now time.Duration) {
		pending = append(pending, firing{at: now + max(specOf(script, next).delay, 0), id: next})
		next++
	}
	for i := 0; i < fuzzRoots(script); i++ {
		create(0)
	}
	for len(pending) > 0 {
		k := 0
		for i := range pending {
			if pending[i].at < pending[k].at {
				k = i
			}
		}
		ev := pending[k]
		pending = slices.Delete(pending, k, k+1)
		fired = append(fired, ev)
		for c := 0; c < specOf(script, ev.id).children; c++ {
			create(ev.at)
		}
		pendingAfter = append(pendingAfter, len(pending))
	}
	return fired, pendingAfter
}

// scriptRun plays a script on an engine, recording what fires.
type scriptRun struct {
	e      *Engine
	script []byte
	next   int
	fired  []firing
}

func (r *scriptRun) Dispatch(ev Typed) { r.fire(int(ev.A)) }

func (r *scriptRun) schedule() {
	id := r.next
	r.next++
	s := specOf(r.script, id)
	if s.typed {
		r.e.ScheduleTyped(s.delay, Typed{Kind: 1, A: uint32(id)})
		return
	}
	r.e.Schedule(s.delay, func() { r.fire(id) })
}

func (r *scriptRun) fire(id int) {
	r.fired = append(r.fired, firing{at: r.e.Now(), id: id})
	for c := 0; c < specOf(r.script, id).children; c++ {
		r.schedule()
	}
}

// play schedules the script's roots on e and runs it under limit.
func play(e *Engine, script []byte, limit uint64) (*scriptRun, error) {
	r := &scriptRun{e: e, script: script}
	e.SetDispatcher(r)
	e.SetEventLimit(limit)
	for i := 0; i < fuzzRoots(script); i++ {
		r.schedule()
	}
	return r, e.Run()
}

// FuzzEngineOrder holds the engine to the determinism contract when
// events schedule events: into the instant being drained (zero and
// negative delays), into instants already holding events, and into new
// instants earlier than pending ones. Each script runs twice on one
// engine: cut short by an event limit, leaving events pending, and
// then in full after Reset.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 0x40, 0x41, 0x49, 0xc0, 0x02, 0x0a})
	f.Add([]byte{1, 0xc6, 0xc2, 0x42, 0xc1, 0x48, 0x80, 0x03, 0x0b, 0x46, 0x00})
	f.Add([]byte{0x12, 0x86, 0xc3, 0xcc, 0xc4, 0x4d, 0x4e, 0x45, 0x81, 0x88, 0xc0, 0x47, 0x09, 0x41})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > maxFuzzScript {
			script = script[:maxFuzzScript]
		}
		want, pendingAfter := referenceOrder(script)
		e := NewEngine()
		// The cut run fires 1 to all of the script's events.
		limit := len(want)
		if len(script) > 0 {
			limit = 1 + int(script[0]>>2)%len(want)
		}
		cut, err := play(e, script, uint64(limit))
		if limit < len(want) {
			if !errors.Is(err, ErrEventLimit) {
				t.Fatalf("run cut at %d of %d events: err = %v, want ErrEventLimit", limit, len(want), err)
			}
			if e.Pending() != pendingAfter[limit-1] {
				t.Errorf("cut run: Pending = %d, want %d", e.Pending(), pendingAfter[limit-1])
			}
		} else if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(cut.fired, want[:limit]) {
			t.Fatalf("cut run fired %v, want %v", cut.fired, want[:limit])
		}
		e.Reset()
		if e.Now() != 0 || e.Processed() != 0 || e.Pending() != 0 {
			t.Fatalf("after Reset: now=%v processed=%d pending=%d", e.Now(), e.Processed(), e.Pending())
		}
		full, err := play(e, script, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(full.fired, want) {
			t.Fatalf("fired %v, want %v", full.fired, want)
		}
		if e.Pending() != 0 || e.Processed() != uint64(len(want)) {
			t.Errorf("after Run: pending=%d processed=%d, want 0 and %d", e.Pending(), e.Processed(), len(want))
		}
	})
}
