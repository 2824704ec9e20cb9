// Package sim provides the deterministic discrete-event simulation
// engine underlying the AS-level BGP model (internal/simbgp). It plays
// the role SSFnet plays in the paper: a virtual clock, an event queue,
// and run-to-quiescence execution.
//
// Determinism: events scheduled for the same virtual time fire in
// scheduling order (a monotonic sequence number breaks ties), so a
// simulation with a fixed topology, fixed seeds, and fixed link delays
// always produces the same outcome.
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

// queuedEvent is one heap entry. fn is nil for typed events; closure
// events leave ev zero.
type queuedEvent struct {
	at  time.Duration
	seq uint64
	ev  Typed
	fn  Event
}

// before is the strict-weak heap order: earlier virtual time first,
// scheduling order (seq) breaking ties — the determinism contract.
func (a *queuedEvent) before(b *queuedEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ErrEventLimit is returned by Run when the configured event budget is
// exhausted before the queue drains — usually a sign of a routing
// oscillation in the model under test.
var ErrEventLimit = errors.New("simulation event limit exceeded")

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; run one Engine per goroutine (the experiment
// harness parallelizes across independent engines).
type Engine struct {
	// queue is a 4-ary min-heap ordered by (at, seq). Hand-rolled index
	// arithmetic (children of i at 4i+1..4i+4) instead of container/heap
	// keeps entries out of interface boxes: heap.Push boxes every
	// queuedEvent into an `any`, one allocation per scheduled event,
	// which at millions of messages per sweep dominated the profile. The
	// shallower 4-ary shape also halves the sift-down depth for the
	// queue sizes BGP convergence produces.
	queue      []queuedEvent
	now        time.Duration
	seq        uint64
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
	return &Engine{eventLimit: DefaultEventLimit}
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
	clear(e.queue) // drop closure references
	e.queue = e.queue[:0]
	e.now = 0
	e.seq = 0
	e.processed = 0
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule enqueues fn to run after delay of virtual time. A negative
// delay is treated as zero (run at the current instant, after already
// queued same-time events).
func (e *Engine) Schedule(delay time.Duration, fn Event) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	e.push(queuedEvent{at: e.now + delay, seq: e.seq, fn: fn})
}

// ScheduleTyped enqueues a typed event after delay of virtual time,
// with the same clamping and FIFO-within-instant semantics as Schedule.
// Closure and typed events share one clock and one sequence space, so
// they interleave deterministically.
func (e *Engine) ScheduleTyped(delay time.Duration, ev Typed) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	e.push(queuedEvent{at: e.now + delay, seq: e.seq, ev: ev})
}

// push appends the event and restores the 4-ary heap order.
func (e *Engine) push(ev queuedEvent) {
	e.queue = append(e.queue, ev)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so popped closures become collectable.
func (e *Engine) pop() queuedEvent {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = queuedEvent{}
	q = q[:n]
	e.queue = q
	// Sift down with 4 children per node.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(&q[min]) {
				min = c
			}
		}
		if !q[min].before(&q[i]) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// fire executes one popped event.
func (e *Engine) fire(ev *queuedEvent) {
	if ev.fn != nil {
		ev.fn()
		return
	}
	e.dispatcher.Dispatch(ev.ev)
}

// Run executes events until the queue is empty (quiescence) or the event
// budget is exhausted.
func (e *Engine) Run() error {
	for len(e.queue) > 0 {
		if e.processed >= e.eventLimit {
			return fmt.Errorf("%w: %d events, virtual time %s", ErrEventLimit, e.processed, e.now)
		}
		ev := e.pop()
		e.now = ev.at
		e.processed++
		e.fire(&ev)
	}
	return nil
}
