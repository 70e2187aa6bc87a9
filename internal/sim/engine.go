// Package sim provides the discrete-event simulation core used by all
// network substrates in this repository: a virtual clock, a cancellable
// event queue, and deterministic named random-number streams.
//
// The engine is single-threaded by design. Simulated time is a float64 in
// seconds; events scheduled for the same instant fire in scheduling order,
// which keeps runs bit-for-bit reproducible for a fixed seed.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Handler is what an event runs when it fires. Post takes one, not a
// func(), so that a caller can post a pointer into storage it already owns
// rather than allocate a closure per event.
type Handler interface{ Fire() }

// Func adapts a func() to a Handler without allocating.
type Func func()

func (f Func) Fire() { f() }

// Event is a scheduled callback. It is returned by Schedule so callers can
// cancel it before it fires, and by NewTimer so its owner can re-arm it.
type Event struct {
	time    float64
	seq     uint64
	fn      Handler
	index   int // position in the heap, -1 once removed
	stopped bool
	// pooled marks an event scheduled by Post: no handle to it exists, so
	// the engine recycles it the moment it leaves the queue. An event a
	// caller can still name (Schedule, NewTimer) is never recycled — a
	// stale handle must stay a no-op for Cancel forever.
	pooled bool
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now   float64
	seq   uint64
	queue eventHeap
	free  []*Event // fired or reset Post events, reused by the next Post
	spare []Event  // what Post has not handed out of its last slab
	fired uint64
}

// eventSlab is how many events Post allocates at a time when its free
// list is empty.
const eventSlab = 64

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far. It is useful for
// instrumentation and complexity experiments.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule runs fn after delay seconds of simulated time. A negative delay
// is treated as zero (fire as soon as possible, after already-queued events
// for the current instant). The returned Event may be cancelled with Cancel.
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	ev := &Event{fn: Func(fn)}
	e.push(ev, delay)
	return ev
}

// Post is Schedule without the handle: the event cannot be cancelled, and
// because nothing can refer to it the engine reuses its storage once it has
// fired. It orders with Schedule'd events exactly as a Schedule call at the
// same point would. fn is a Handler, so a warm Post of a pointer the caller
// owns allocates nothing; wrap a func() in Func.
func (e *Engine) Post(delay float64, fn Handler) {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.fn = fn
	} else {
		if len(e.spare) == 0 {
			e.spare = make([]Event, eventSlab)
		}
		ev = &e.spare[0]
		e.spare = e.spare[1:]
		ev.fn, ev.pooled = fn, true
	}
	e.push(ev, delay)
}

// NewTimer returns an unscheduled event bound to fn, for a callback that is
// re-armed over and over (a periodic tick, a completion deadline that moves):
// its owner arms it with Reschedule, as often as it likes, and may Cancel
// it in between. fn is a Handler, as for Post, so an owner with a timer
// per element of its storage binds each to a pointer it already has.
func (e *Engine) NewTimer(fn Handler) *Event {
	return &Event{fn: fn, index: -1, stopped: true}
}

// Reschedule arms ev to fire after delay seconds, replacing its pending
// firing if it has one. The firing orders as a fresh Schedule call would:
// Cancel followed by Schedule, without the new Event.
func (e *Engine) Reschedule(ev *Event, delay float64) {
	if ev.index >= 0 {
		heap.Remove(&e.queue, ev.index)
	}
	e.push(ev, delay)
}

// push stamps ev with its firing time and the next sequence number and
// queues it.
func (e *Engine) push(ev *Event, delay float64) {
	if f, ok := ev.fn.(Func); ev.fn == nil || ok && f == nil {
		panic("sim: event scheduled with nil function")
	}
	if math.IsNaN(delay) {
		panic("sim: event scheduled with NaN delay")
	}
	if delay < 0 {
		delay = 0
	}
	ev.time, ev.seq, ev.stopped = e.now+delay, e.seq, false
	e.seq++
	heap.Push(&e.queue, ev)
}

// Reset returns the engine to its initial state — clock, sequence and fired
// counters at zero, nothing queued — without running anything. Queued Post
// events go back to the free list; events a caller holds a handle to are
// left cancelled, and a timer can be re-armed afterwards.
func (e *Engine) Reset() {
	for i, ev := range e.queue {
		ev.index = -1
		ev.stopped = true
		e.recycle(ev)
		e.queue[i] = nil
	}
	e.queue = e.queue[:0]
	e.now, e.seq, e.fired = 0, 0, 0
}

// recycle returns a Post event that has left the queue to the free list.
func (e *Engine) recycle(ev *Event) {
	if ev.pooled {
		ev.fn = nil
		e.free = append(e.free, ev)
	}
}

// ScheduleAt runs fn at absolute simulated time t. Times in the past are
// clamped to the current instant.
func (e *Engine) ScheduleAt(t float64, fn func()) *Event {
	return e.Schedule(t-e.now, fn)
}

// Cancel removes a scheduled event. Cancelling an event that already fired
// or was already cancelled is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.stopped || ev.index < 0 {
		if ev != nil {
			ev.stopped = true
		}
		return
	}
	ev.stopped = true
	heap.Remove(&e.queue, ev.index)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.stopped {
			continue
		}
		if ev.time < e.now {
			panic(fmt.Sprintf("sim: event scheduled at %g fired at %g (clock went backwards)", ev.time, e.now))
		}
		e.now = ev.time
		ev.stopped = true
		e.fired++
		fn := ev.fn
		e.recycle(ev)
		fn.Fire()
		return true
	}
	return false
}

// Run executes events until the queue drains. It returns the final
// simulated time.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (if it is later than the last event). Events after
// the deadline stay queued.
func (e *Engine) RunUntil(deadline float64) float64 {
	for {
		next, ok := e.peekTime()
		if !ok || next > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

func (e *Engine) peekTime() (float64, bool) {
	for len(e.queue) > 0 {
		if e.queue[0].stopped {
			heap.Pop(&e.queue)
			continue
		}
		return e.queue[0].time, true
	}
	return 0, false
}

// eventHeap is a min-heap ordered by (time, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
