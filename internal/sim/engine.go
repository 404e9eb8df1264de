// Package sim provides a deterministic discrete-event simulation engine
// used as the substrate for the microservice cluster model. All time is
// simulated (seconds as float64); nothing in this package touches the wall
// clock, so experiments are reproducible given a fixed RNG seed.
package sim

import "fmt"

// Timer is the persistent event of a component that has at most one event
// pending, such as a tier's next completion: registered once with NewTimer,
// then armed, moved and disarmed by one heap fix. It is a value naming the
// slot the engine keeps for it; it is queued only while armed.
type Timer struct {
	e    *Engine
	slot uint32
}

// entry is one queued event. The ordering key lives in the heap array
// itself, so sifting compares neighbouring memory and never reads a slot.
type entry struct {
	t    float64
	seq  int64
	slot uint32
}

// before is the queue order: by timestamp, then by scheduling order. seq is
// unique, so the order is total and firing does not depend on the heap's shape.
func (a entry) before(b entry) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// slot holds what a queued event needs besides its key: the callback and
// where in the heap its entry is (-1 for an idle timer). A one-shot's slot
// returns to the free list once it has fired; a timer's is its own for good.
type slot struct {
	fn    func()
	pos   int32
	timer bool
}

// Engine is a discrete-event simulator: an indexed binary min-heap of
// one-shots and armed timers over a slab of slots, the one-shots' recycled
// through a free list, so steady-state scheduling allocates nothing. (A 4-ary
// heap measured the same from 20 to 100 000 pending events — CHANGES.md,
// PR 13.) The zero value is ready to use.
type Engine struct {
	heap  []entry
	slots []slot
	free  []uint32 // one-shot slots with no event
	now   float64
	seq   int64
	fired int64
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run once at absolute simulated time t. Events with equal
// timestamps fire in the order they were scheduled, which keeps runs
// deterministic. A time in the past, or NaN, panics: the caller has a bug.
func (e *Engine) At(t float64, fn func()) {
	e.checkTime(t)
	s := uint32(len(e.slots))
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
		e.slots[s].fn = fn
	} else {
		e.slots = append(e.slots, slot{fn: fn})
	}
	e.heap = append(e.heap, entry{t: t, seq: e.seq, slot: s})
	e.seq++
	e.up(len(e.heap) - 1)
}

// After schedules fn to run once d seconds from now.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// NewTimer registers fn as a timer, idle until Set.
func (e *Engine) NewTimer(fn func()) Timer {
	e.slots = append(e.slots, slot{fn: fn, pos: -1, timer: true})
	return Timer{e: e, slot: uint32(len(e.slots) - 1)}
}

// Set arms the timer for absolute time t, in place if it is armed already or
// is the timer now firing. It takes a fresh place in scheduling order, so it
// fires exactly where At(t, fn) would have put a new event.
func (tm Timer) Set(t float64) {
	e := tm.e
	e.checkTime(t)
	i := int(e.slots[tm.slot].pos)
	if i < 0 {
		i = len(e.heap)
		e.heap = append(e.heap, entry{slot: tm.slot})
	}
	e.heap[i].t, e.heap[i].seq = t, e.seq
	e.seq++
	e.fix(i)
}

// Stop disarms the timer; on an idle timer it is a no-op.
func (tm Timer) Stop() {
	if i := int(tm.e.slots[tm.slot].pos); i >= 0 {
		tm.e.remove(i)
	}
}

// Run executes events in timestamp order until the queue empties or the
// next event lies past the until horizon, and leaves the clock at until.
func (e *Engine) Run(until float64) {
	for len(e.heap) > 0 && e.heap[0].t <= until {
		e.fire()
	}
	if e.now < until {
		e.now = until
	}
}

// Fired returns the number of events executed so far.
func (e *Engine) Fired() int64 { return e.fired }

// checkTime is written so that NaN fails it: a NaN key orders nowhere.
func (e *Engine) checkTime(t float64) {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: scheduling event at %.6f before now %.6f", t, e.now))
	}
}

// fire advances the clock to the earliest event and runs it. The event stays
// at the root while its callback runs: its key (now, old seq) precedes
// anything the callback can schedule, so nothing passes it and a timer's Set
// from inside costs one sift-down. A root whose seq the callback left alone
// is a one-shot, or a timer not re-armed, and is removed. No *slot is held
// across the callback, which may grow the slab.
func (e *Engine) fire() {
	top := e.heap[0]
	e.now = top.t
	e.fired++
	e.slots[top.slot].fn()
	if len(e.heap) > 0 && e.heap[0].seq == top.seq {
		e.remove(0)
	}
}

// remove deletes heap[i]; a one-shot's slot is recycled, a timer goes idle.
func (e *Engine) remove(i int) {
	s := e.heap[i].slot
	last := len(e.heap) - 1
	moved := e.heap[last]
	e.heap = e.heap[:last]
	if i != last {
		e.heap[i] = moved
		e.fix(i)
	}
	if sl := &e.slots[s]; sl.timer {
		sl.pos = -1
	} else {
		sl.fn = nil
		e.free = append(e.free, s)
	}
}

// fix restores heap order around heap[i] after its key changed.
func (e *Engine) fix(i int) {
	if i > 0 && e.heap[i].before(e.heap[(i-1)/2]) {
		e.up(i)
	} else {
		e.down(i)
	}
}

func (e *Engine) up(i int) {
	x := e.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(e.heap[p]) {
			break
		}
		e.place(i, e.heap[p])
		i = p
	}
	e.place(i, x)
}

func (e *Engine) down(i int) {
	x := e.heap[i]
	n := len(e.heap)
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if m+1 < n && e.heap[m+1].before(e.heap[m]) {
			m++
		}
		if !e.heap[m].before(x) {
			break
		}
		e.place(i, e.heap[m])
		i = m
	}
	e.place(i, x)
}

func (e *Engine) place(i int, x entry) {
	e.heap[i] = x
	e.slots[x.slot].pos = int32(i)
}
