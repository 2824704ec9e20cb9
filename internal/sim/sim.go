// Package sim provides the deterministic discrete-event simulation
// engine underlying the AS-level BGP model (internal/simbgp). It plays
// the role SSFnet plays in the paper: a virtual clock, an event queue,
// and run-to-quiescence execution.
//
// Determinism: events scheduled for the same virtual time fire in
// scheduling order, so a simulation with a fixed topology, fixed seeds,
// and fixed link delays always produces the same outcome. The queue
// keeps one FIFO per distinct due instant and orders only the
// instants, so scheduling order within an instant is append order.
//
// Events come in two flavors. Closure events (Schedule) are the
// flexible API used for setup and one-off actions; each costs one
// closure allocation. Typed events (ScheduleTyped) are a compact
// kind-plus-payload struct dispatched through the engine's Dispatcher —
// the steady-state form simbgp uses for message delivery, which
// allocates nothing once the queue has grown to its high-water
// capacity.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Event is a deferred action in virtual time.
type Event func()

// Typed is an allocation-free event: a small value struct the engine
// hands to the configured Dispatcher at fire time. Kind selects the
// action; A, B and C carry the payload (the dispatcher defines their
// meaning — simbgp uses node indices and message slots).
type Typed struct {
	Kind    uint32
	A, B, C uint32
}

// Dispatcher executes typed events. Exactly one is attached to an
// Engine (SetDispatcher); scheduling a typed event with no dispatcher
// attached is a programming error and panics at fire time.
type Dispatcher interface {
	Dispatch(Typed)
}

// queuedEvent is one FIFO entry. fn is nil for typed events; closure
// events leave ev zero.
type queuedEvent struct {
	ev Typed
	fn Event
}

// fifo holds the events due at one instant, in scheduling order; head
// is the next to fire.
type fifo struct {
	events []queuedEvent
	head   int
}

// instant is one entry of the instants heap: a distinct pending due
// time and the index of its FIFO in Engine.fifos.
type instant struct {
	at   time.Duration
	fifo int32
}

// ErrEventLimit is returned by Run when the configured event budget is
// exhausted before the queue drains — usually a sign of a routing
// oscillation in the model under test.
var ErrEventLimit = errors.New("simulation event limit exceeded")

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; run one Engine per goroutine (the experiment
// harness parallelizes across independent engines).
type Engine struct {
	// Events are grouped by due instant. Each pending instant owns a
	// FIFO, and appending to it keeps same-time events in scheduling
	// order without a sequence number. instants is a 4-ary min-heap of
	// the distinct pending instants (children of i at 4i+1..4i+4), so
	// only opening or draining an instant sifts, not every event: a BGP
	// model's link delays put thousands of events on each of a few dozen
	// instants. The heap is hand-rolled because container/heap boxes
	// each entry into an `any`. open maps a pending instant's due time
	// to its FIFO. Drained FIFOs go on free with their capacity, so a
	// steady state allocates nothing.
	instants []instant
	open     map[time.Duration]int32
	fifos    []fifo
	free     []int32

	now        time.Duration
	processed  uint64
	eventLimit uint64
	dispatcher Dispatcher
}

// DefaultEventLimit bounds a single Run; BGP on the paper's topologies
// converges in well under this.
const DefaultEventLimit = 50_000_000

// NewEngine returns an engine at virtual time zero with the default
// event budget; SetEventLimit changes it.
func NewEngine() *Engine {
	return &Engine{eventLimit: DefaultEventLimit, open: make(map[time.Duration]int32)}
}

// SetDispatcher attaches the executor for typed events.
func (e *Engine) SetDispatcher(d Dispatcher) { e.dispatcher = d }

// SetEventLimit replaces the per-run event budget (0 restores the
// default). The processed count it is measured against is cumulative
// until Reset.
func (e *Engine) SetEventLimit(limit uint64) {
	if limit == 0 {
		limit = DefaultEventLimit
	}
	e.eventLimit = limit
}

// Reset returns the engine to virtual time zero with an empty queue,
// retaining the queue's capacity (and the dispatcher and event limit)
// so a pooled simulation can rerun without reallocating. Pending
// closure events are released.
func (e *Engine) Reset() {
	for _, in := range e.instants {
		e.release(in.fifo)
	}
	e.instants = e.instants[:0]
	clear(e.open)
	e.now = 0
	e.processed = 0
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int {
	n := 0
	for _, in := range e.instants {
		q := &e.fifos[in.fifo]
		n += len(q.events) - q.head
	}
	return n
}

// Schedule enqueues fn to run after delay of virtual time. A negative
// delay is treated as zero (run at the current instant, after already
// queued same-time events).
func (e *Engine) Schedule(delay time.Duration, fn Event) {
	e.push(delay, queuedEvent{fn: fn})
}

// ScheduleTyped enqueues a typed event after delay of virtual time,
// with the same clamping and FIFO-within-instant semantics as Schedule.
// Closure and typed events share one clock and one FIFO per instant, so
// they interleave deterministically.
func (e *Engine) ScheduleTyped(delay time.Duration, ev Typed) {
	e.push(delay, queuedEvent{ev: ev})
}

// push appends ev to the FIFO of its due instant, opening the instant
// if none is pending.
func (e *Engine) push(delay time.Duration, ev queuedEvent) {
	if delay < 0 {
		delay = 0
	}
	at := e.now + delay
	f, ok := e.open[at]
	if !ok {
		f = e.openInstant(at)
	}
	e.fifos[f].events = append(e.fifos[f].events, ev)
}

// openInstant takes a free FIFO (or makes one) for instant at, records
// it in open and sifts the instant up the instants heap.
func (e *Engine) openInstant(at time.Duration) int32 {
	var f int32
	if k := len(e.free); k > 0 {
		f = e.free[k-1]
		e.free = e.free[:k-1]
	} else {
		e.fifos = append(e.fifos, fifo{})
		f = int32(len(e.fifos) - 1)
	}
	e.open[at] = f
	e.instants = append(e.instants, instant{at: at, fifo: f})
	h := e.instants
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if h[parent].at <= at {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = instant{at: at, fifo: f}
	return f
}

// closeInstant removes the drained earliest instant from open and from
// the instants heap, and frees its FIFO.
func (e *Engine) closeInstant() {
	h := e.instants
	top := h[0]
	delete(e.open, top.at)
	e.release(top.fifo)
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.instants = h
	if n == 0 {
		return
	}
	// Sift the former last entry down from the root, 4 children per node.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].at < h[min].at {
				min = c
			}
		}
		if h[min].at >= last.at {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
}

// release empties FIFO f, dropping the closures it still references,
// and puts it on the free list with its capacity.
func (e *Engine) release(f int32) {
	q := &e.fifos[f]
	clear(q.events[q.head:])
	q.events = q.events[:0]
	q.head = 0
	e.free = append(e.free, f)
}

// Run executes events until the queue is empty (quiescence) or the event
// budget is exhausted.
func (e *Engine) Run() error {
	for len(e.instants) > 0 {
		if e.processed >= e.eventLimit {
			return fmt.Errorf("%w: %d events, virtual time %s", ErrEventLimit, e.processed, e.now)
		}
		top := e.instants[0]
		q := &e.fifos[top.fifo]
		ev := q.events[q.head]
		// Popped closures become collectable. The instant closes before
		// its last event fires, so an event the last one schedules for
		// the same instant opens it anew, after every earlier one.
		q.events[q.head].fn = nil
		q.head++
		if q.head == len(q.events) {
			e.closeInstant()
		}
		e.now = top.at
		e.processed++
		if ev.fn != nil {
			ev.fn()
		} else {
			e.dispatcher.Dispatch(ev.ev)
		}
	}
	return nil
}
