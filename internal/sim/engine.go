// Package sim provides a deterministic discrete-event simulation engine
// used as the substrate for the microservice cluster model. All time is
// simulated (seconds as float64); nothing in this package touches the wall
// clock, so experiments are reproducible given a fixed RNG seed.
package sim

import "fmt"

// Handle names one scheduled event so that it can be cancelled or
// rescheduled. It is a value: the slot the event occupies plus the slot's
// generation at scheduling time. Once the event has fired or been cancelled
// the slot's generation moves on, so a stale handle matches nothing — using
// it is a no-op and can never reach the slot's next occupant. The zero
// Handle names no event.
type Handle struct {
	slot uint32
	gen  uint32
}

// entry is one queued event. The ordering key lives in the heap array
// itself, so sifting compares neighbouring memory and never reads a slot.
type entry struct {
	t    float64
	seq  int64
	slot uint32
}

// before is the queue order: by timestamp, then by scheduling order. seq is
// unique, so the order is total and the firing sequence does not depend on
// the heap's shape.
func (a entry) before(b entry) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// slot holds what a queued event needs besides its key: the callback, the
// generation that validates handles, and where in the heap its entry is.
type slot struct {
	fn  func()
	gen uint32 // never 0 while the slot exists, so the zero Handle is stale
	pos int32
}

// Engine is a discrete-event simulator: an indexed binary min-heap of live
// events over a slab of slots recycled through a free list, so steady-state
// scheduling allocates nothing. (A 4-ary heap measured the same from 20 to
// 100 000 pending events — CHANGES.md, PR 13 — so the simpler one stays.) The
// zero value is ready to use.
type Engine struct {
	heap  []entry
	slots []slot
	free  []uint32 // slots with no event
	now   float64
	seq   int64
	halt  bool
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at absolute simulated time t. Events with equal
// timestamps fire in the order they were scheduled, which keeps runs
// deterministic. Scheduling in the past panics: it always indicates a logic
// error in the caller.
func (e *Engine) At(t float64, fn func()) Handle {
	e.checkTime(t)
	var s uint32
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		s = uint32(len(e.slots))
		e.slots = append(e.slots, slot{gen: 1})
	}
	e.slots[s].fn = fn
	e.heap = append(e.heap, entry{t: t, seq: e.seq, slot: s})
	e.seq++
	e.up(len(e.heap) - 1)
	return Handle{slot: s, gen: e.slots[s].gen}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) Handle {
	return e.At(e.now+d, fn)
}

// Cancel removes a pending event from the queue. Cancelling an event that
// has already fired or been cancelled, or the zero Handle, is a no-op.
func (e *Engine) Cancel(h Handle) {
	if e.live(h) {
		e.remove(int(e.slots[h.slot].pos))
	}
}

// Reschedule moves a pending event to absolute time t in place and reports
// whether it did; a stale handle leaves the queue untouched and returns
// false. The event takes a fresh place in scheduling order, so it fires
// exactly where Cancel followed by At(t, fn) would have put it.
func (e *Engine) Reschedule(h Handle, t float64) bool {
	if !e.live(h) {
		return false
	}
	e.checkTime(t)
	i := int(e.slots[h.slot].pos)
	e.heap[i].t, e.heap[i].seq = t, e.seq
	e.seq++
	e.fix(i)
	return true
}

// Run executes events in timestamp order until the queue empties, until
// the next event lies past the until horizon, or until Halt is called. It
// leaves the clock at until — or, when halted, at the last executed event,
// so that the events still pending stay in the future.
func (e *Engine) Run(until float64) {
	e.halt = false
	for len(e.heap) > 0 && !e.halt {
		if e.heap[0].t > until {
			break
		}
		e.fire()
	}
	if !e.halt && e.now < until {
		e.now = until
	}
}

// Step executes exactly one pending event (if any) and reports whether an
// event was executed.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	e.fire()
	return true
}

// Halt stops the current Run after the in-flight event returns.
func (e *Engine) Halt() { e.halt = true }

// Pending returns the number of events still queued: live events only,
// since Cancel removes its event at once.
func (e *Engine) Pending() int { return len(e.heap) }

func (e *Engine) checkTime(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %.6f before now %.6f", t, e.now))
	}
}

func (e *Engine) live(h Handle) bool {
	return int(h.slot) < len(e.slots) && e.slots[h.slot].gen == h.gen
}

// fire pops the earliest event, advances the clock to it and runs it. The
// slot is recycled before the callback runs, so the callback may schedule
// into it.
func (e *Engine) fire() {
	top := e.heap[0]
	fn := e.slots[top.slot].fn
	e.remove(0)
	e.now = top.t
	fn()
}

// remove deletes heap[i] and recycles its slot.
func (e *Engine) remove(i int) {
	s := e.heap[i].slot
	last := len(e.heap) - 1
	moved := e.heap[last]
	e.heap = e.heap[:last]
	if i != last {
		e.heap[i] = moved
		e.fix(i)
	}
	sl := &e.slots[s]
	sl.fn = nil
	if sl.gen++; sl.gen == 0 {
		sl.gen = 1
	}
	e.free = append(e.free, s)
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
