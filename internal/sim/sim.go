// Package sim implements the discrete-event simulation engine that every
// other component of the repository runs on: a virtual nanosecond clock and
// a priority queue of scheduled events with deterministic ordering.
//
// Nothing in the simulator sleeps or reads the wall clock; experiments are
// pure functions of their configuration and seed. The one exception is
// RunPaced, which drives the same loop in wall time so the agent can run
// on a real host; the callbacks still see only virtual time.
//
// The event loop is on the hot path of every experiment (the agent's 50 µs
// busy poll alone fires ~20,000 events per simulated second per agent), so
// the queue has two parts. Events scheduled with At and After go to a
// hand-rolled binary heap — no container/heap interface round-trips or
// `any` boxing. Events scheduled with AfterFixed go to a FIFO lane per
// delay: the clock never runs backwards, so events scheduled with one
// fixed delay come due in the order they were scheduled, and a ring
// buffer of them is already sorted. Each step fires the earlier of the
// heap top and the earliest lane head (kept up to date as lanes change)
// under one (time, sequence) order, so the fire order does not depend on
// which part holds an event. Fired or
// canceled events are recycled through a per-Loop free list instead of
// being left to the garbage collector.
package sim

import (
	"context"
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations in virtual-time nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a time.Duration into virtual-time units.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// ToDuration converts a virtual Time (interpreted as a span) into a
// time.Duration.
func (t Time) ToDuration() time.Duration { return time.Duration(t) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the time as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds returns the time as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. The zero value is invalid; events are
// created through Loop.At, Loop.After and Loop.AfterFixed.
//
// An *Event is owned by its Loop and is only valid while the event is
// pending: once it fires or is canceled the Loop may recycle the struct
// for a later At/After. Callers that retain an *Event across callbacks
// must drop (nil) their reference when the event fires or immediately
// after canceling it, and must not call Cancel through a reference that
// may already have fired.
type Event struct {
	when Time
	seq  uint64 // tie-break: FIFO among events at the same instant
	fn   func()
	idx  int32 // heap index (0 in a lane); -1 once fired/canceled
	lane int32 // 1 + index of the lane holding the event; 0 for the heap
}

// When returns the virtual time at which the event fires (or fired).
func (e *Event) When() Time { return e.when }

// Canceled reports whether the event has been removed from the queue,
// either by firing or by Cancel. It is only meaningful while the caller
// still owns the event (see the Event doc comment on recycling).
func (e *Event) Canceled() bool { return e.idx < 0 }

// before reports whether a fires ahead of b: earlier time first, FIFO
// among events at the same instant.
func (a *Event) before(b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Loop is the event loop. It is single-threaded: all callbacks run on the
// goroutine that calls Run/Step, in deterministic order. Distinct Loops
// share no state, so independent simulations can run on concurrent
// goroutines (see internal/harness.RunAll).
type Loop struct {
	now      Time
	queue    []*Event // binary min-heap ordered by (when, seq)
	lanes    []lane   // FIFO lanes of AfterFixed events, one per delay
	laneHead *Event   // earliest lane head; nil when every lane is empty
	inLanes  int      // pending (not canceled) events in lanes
	free     []*Event // recycled events, reused by At/After/AfterFixed
	nextSeq  uint64
	fired    uint64
}

// maxLanes bounds the number of lanes. A delay without a lane takes over
// an empty one, or else falls back to the heap, so a caller using many
// delays costs each step at most maxLanes extra comparisons.
const maxLanes = 4

// lane is a FIFO of events scheduled with one fixed delay d, kept as a
// ring buffer whose length is a power of two. Its head is always a
// pending event: canceled entries stay in place until they reach the
// head and are recycled there.
type lane struct {
	d    Time
	ring []*Event
	head int
	n    int
}

func (q *lane) front() *Event { return q.ring[q.head] }

func (q *lane) push(e *Event) {
	if q.n == len(q.ring) {
		ring := make([]*Event, max(8, 2*len(q.ring)))
		for i := 0; i < q.n; i++ {
			ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = e
	q.n++
}

func (q *lane) pop() *Event {
	e := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	e.lane = 0
	return e
}

// NewLoop returns an empty loop with the clock at zero.
func NewLoop() *Loop { return &Loop{} }

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Len returns the number of pending events. Canceled events are not
// pending, even while a lane still holds them.
func (l *Loop) Len() int { return len(l.queue) + l.inLanes }

// Fired returns the total number of events executed so far; useful in
// tests and as a progress measure.
func (l *Loop) Fired() uint64 { return l.fired }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it always indicates a simulator bug, and silently clamping would hide it.
func (l *Loop) At(t Time, fn func()) *Event {
	if t < l.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, l.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	e := l.alloc(t, fn)
	l.push(e)
	return e
}

// After schedules fn to run d after the current time.
func (l *Loop) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return l.At(l.now+d, fn)
}

// AfterFixed schedules fn to run d after the current time, exactly like
// After. It is faster for a delay the caller uses over and over, such as
// a polling period: events with equal d share a FIFO lane instead of
// going through the heap. Which of After and AfterFixed schedules an
// event never changes when or in what order it fires.
func (l *Loop) AfterFixed(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	k := l.laneFor(d)
	if k < 0 {
		return l.At(l.now+d, fn)
	}
	e := l.alloc(l.now+d, fn)
	e.idx, e.lane = 0, int32(k+1)
	q := &l.lanes[k]
	q.push(e)
	l.inLanes++
	if q.n == 1 && (l.laneHead == nil || e.before(l.laneHead)) {
		l.laneHead = e // e heads a lane that was empty
	}
	return e
}

// laneFor returns the index of d's lane, opening one if there is room
// or an empty lane to take over, and -1 when every lane is busy with
// another delay.
func (l *Loop) laneFor(d Time) int {
	empty := -1
	for k := range l.lanes {
		if l.lanes[k].d == d {
			return k
		}
		if l.lanes[k].n == 0 && empty < 0 {
			empty = k
		}
	}
	if len(l.lanes) < maxLanes {
		l.lanes = append(l.lanes, lane{d: d})
		return len(l.lanes) - 1
	}
	if empty >= 0 {
		l.lanes[empty].d = d
	}
	return empty
}

// Cancel removes a pending event and recycles it. Canceling nil, or an
// event that already fired or was already canceled (and has not been
// recycled since — see the Event doc comment), is a no-op. A canceled
// lane event stays in its lane until it reaches the head, where it is
// recycled.
func (l *Loop) Cancel(e *Event) {
	if e == nil || e.idx < 0 {
		return
	}
	if e.lane != 0 {
		e.idx = -1
		l.inLanes--
		l.trimLane(&l.lanes[e.lane-1])
		return
	}
	l.removeAt(int(e.idx))
	e.idx = -1
	l.recycle(e)
}

// trimLane recycles canceled events at q's head, so the head is pending,
// and recomputes the earliest lane head.
func (l *Loop) trimLane(q *lane) {
	for q.n > 0 && q.front().idx < 0 {
		l.recycle(q.pop())
	}
	l.laneHead = nil
	for i := range l.lanes {
		if q := &l.lanes[i]; q.n > 0 && (l.laneHead == nil || q.front().before(l.laneHead)) {
			l.laneHead = q.front()
		}
	}
}

// alloc takes an event from the free list (or the heap allocator) and
// initializes it for scheduling.
func (l *Loop) alloc(t Time, fn func()) *Event {
	var e *Event
	if n := len(l.free); n > 0 {
		e = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		e = new(Event)
	}
	e.when = t
	e.seq = l.nextSeq
	e.fn = fn
	l.nextSeq++
	return e
}

// recycle returns a detached (idx < 0) event to the free list.
func (l *Loop) recycle(e *Event) {
	e.fn = nil
	l.free = append(l.free, e)
}

// rearm re-schedules an event that just fired (idx < 0, not yet
// recycled) without going through the free list. Used by Ticker so each
// tick reuses the same Event.
func (l *Loop) rearm(e *Event, t Time, fn func()) {
	e.when = t
	e.seq = l.nextSeq
	e.fn = fn
	l.nextSeq++
	l.push(e)
}

// push inserts e into the heap.
func (l *Loop) push(e *Event) {
	l.queue = append(l.queue, e)
	l.siftUp(len(l.queue)-1, e)
}

// popFront removes and returns the earliest event, marking it detached.
func (l *Loop) popFront() *Event {
	q := l.queue
	e := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	l.queue = q[:n]
	if n > 0 {
		l.siftDown(0, last)
	}
	e.idx = -1
	return e
}

// removeAt deletes the event at heap index i.
func (l *Loop) removeAt(i int) {
	q := l.queue
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	l.queue = q[:n]
	if i == n {
		return
	}
	// Re-place the displaced last element; it may need to move either way.
	l.siftDown(i, last)
	if l.queue[i] == last {
		l.siftUp(i, last)
	}
}

// siftUp places e at index i and restores heap order toward the root.
func (l *Loop) siftUp(i int, e *Event) {
	q := l.queue
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].idx = int32(i)
		i = p
	}
	q[i] = e
	e.idx = int32(i)
}

// siftDown places e at index i and restores heap order toward the leaves.
func (l *Loop) siftDown(i int, e *Event) {
	q := l.queue
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(e) {
			break
		}
		q[i] = q[c]
		q[i].idx = int32(i)
		i = c
	}
	q[i] = e
	e.idx = int32(i)
}

// next returns the earliest pending event, or nil when none is pending:
// the heap top or the earliest lane head, whichever is before the other.
func (l *Loop) next() *Event {
	if len(l.queue) == 0 {
		return l.laneHead
	}
	if e := l.queue[0]; l.laneHead == nil || e.before(l.laneHead) {
		return e
	}
	return l.laneHead
}

// step fires e, the event next returned.
func (l *Loop) step(e *Event) {
	if e.lane == 0 {
		l.popFront()
	} else {
		q := &l.lanes[e.lane-1]
		q.pop()
		e.idx = -1
		l.inLanes--
		l.trimLane(q)
	}
	l.now = e.when
	fn := e.fn
	e.fn = nil
	l.fired++
	fn()
	if e.idx < 0 { // not re-armed by the callback (Ticker re-arms)
		l.recycle(e)
	}
}

// Step executes the next pending event, advancing the clock to its time.
// It returns false if the queue is empty.
func (l *Loop) Step() bool {
	e := l.next()
	if e == nil {
		return false
	}
	l.step(e)
	return true
}

// RunUntil executes events until the clock would pass end, then sets the
// clock to exactly end. Events scheduled at exactly end do run.
func (l *Loop) RunUntil(end Time) {
	for e := l.next(); e != nil && e.when <= end; e = l.next() {
		l.step(e)
	}
	if l.now < end {
		l.now = end
	}
}

// Run executes events until the queue is empty.
func (l *Loop) Run() {
	for e := l.next(); e != nil; e = l.next() {
		l.step(e)
	}
}

// Clock is the wall-time source RunPaced paces against.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// RealClock paces against the OS clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// RunPaced executes events in wall time: each event fires once c has
// advanced, since the call, by the event's virtual offset from the loop's
// clock at the call. Events that fall behind schedule fire immediately
// and none is skipped; callbacks still see each event's scheduled virtual
// time, exactly as under RunUntil. It returns when ctx is done or the
// queue is empty.
func (l *Loop) RunPaced(ctx context.Context, c Clock) {
	wall0, virt0 := c.Now(), l.now
	for ctx.Err() == nil {
		e := l.next()
		if e == nil {
			return
		}
		due := wall0.Add((e.when - virt0).ToDuration())
		if d := due.Sub(c.Now()); d > 0 {
			c.Sleep(d)
			continue // re-check ctx and the head after sleeping
		}
		l.step(e)
	}
}

// Ticker invokes fn every interval until stopped, starting at start.
// Each tick reuses the ticker's single Event, so a long-running ticker
// performs no per-tick allocation.
type Ticker struct {
	loop     *Loop
	interval Time
	fn       func()
	ev       *Event
	tickFn   func() // t.tick bound once; avoids a per-tick method-value alloc
	stopped  bool
}

// NewTicker starts a ticker whose first tick fires at start.
func (l *Loop) NewTicker(start, interval Time, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: non-positive ticker interval")
	}
	t := &Ticker{loop: l, interval: interval, fn: fn}
	t.tickFn = t.tick
	t.ev = l.At(start, t.tickFn)
	return t
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have called Stop
		// The tick event has just fired and is detached; re-arm it in
		// place rather than allocating a fresh event.
		t.loop.rearm(t.ev, t.loop.now+t.interval, t.tickFn)
	}
}

// SetInterval changes the interval used for subsequent reschedules.
//
// Contract: the change only affects the *next* reschedule. A tick that
// is already pending fires at its originally scheduled time; the first
// tick after that pending one is the first to use the new interval.
// Called from inside the tick callback, the new interval therefore takes
// effect immediately (the next tick is scheduled after fn returns).
func (t *Ticker) SetInterval(interval Time) {
	if interval <= 0 {
		panic("sim: non-positive ticker interval")
	}
	t.interval = interval
}

// Stop halts the ticker. Safe to call from inside the tick callback and
// idempotent.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.loop.Cancel(t.ev)
}
