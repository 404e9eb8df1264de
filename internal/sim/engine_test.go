package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var got []float64
	for _, ts := range []float64{3, 1, 2, 1.5, 0.5} {
		ts := ts
		e.At(ts, func() { got = append(got, ts) })
	}
	e.Run(10)
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("expected 5 events, got %d", len(got))
	}
	if e.Now() != 10 {
		t.Fatalf("clock should advance to horizon, got %v", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(1.0, func() { got = append(got, i) })
	}
	e.Run(2)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	var e Engine
	var times []float64
	e.After(1, func() {
		times = append(times, e.Now())
		e.After(1, func() { times = append(times, e.Now()) })
	})
	e.Run(5)
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("nested scheduling broken: %v", times)
	}
}

func TestTimerStop(t *testing.T) {
	var e Engine
	fired := false
	tm := e.NewTimer(func() { fired = true })
	tm.Set(1)
	tm.Stop()
	e.Run(2)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestEngineHorizonLeavesFutureEvents(t *testing.T) {
	var e Engine
	fired := false
	e.At(5, func() { fired = true })
	e.Run(3)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 3 {
		t.Fatalf("now = %v, want 3", e.Now())
	}
	e.Run(6)
	if !fired {
		t.Fatal("event not fired after extending horizon")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(2, func() {})
	e.Run(3)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.At(1, func() {})
}

// A NaN time compares false both ways, so it would sit anywhere in the heap
// and could become the clock: At and Timer.Set refuse it, naming the value.
func TestEngineNaNTimePanics(t *testing.T) {
	var e Engine
	tm := e.NewTimer(func() {})
	for name, schedule := range map[string]func(){
		"At":        func() { e.At(math.NaN(), func() {}) },
		"Timer.Set": func() { tm.Set(math.NaN()) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "NaN") {
					t.Errorf("%s(NaN): recovered %q, want a panic naming NaN", name, msg)
				}
			}()
			schedule()
		}()
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events queued by refused calls", e.Pending())
	}
}

// A halted Run leaves the clock at the last executed event: jumping it to
// the horizon would put the still-pending events in the past, and the next
// Run would move time backwards.
func TestEngineHalt(t *testing.T) {
	var e Engine
	var fired []float64
	for i := 1; i <= 10; i++ {
		e.At(float64(i), func() {
			if len(fired) > 0 && e.Now() < fired[len(fired)-1] {
				t.Errorf("clock moved backwards: %v after %v", e.Now(), fired[len(fired)-1])
			}
			fired = append(fired, e.Now())
			if len(fired) == 3 {
				e.Halt()
			}
		})
	}
	e.Run(100)
	if len(fired) != 3 || e.Now() != 3 || e.Pending() != 7 {
		t.Fatalf("after halt: %d events fired, now %v, %d pending; want 3, 3 and 7", len(fired), e.Now(), e.Pending())
	}
	e.At(3.5, func() {}) // would panic against a clock that had jumped to 100
	e.Run(100)
	if len(fired) != 10 || !sort.Float64sAreSorted(fired) || e.Now() != 100 {
		t.Fatalf("second run: fired %v, now %v", fired, e.Now())
	}
}

func TestEngineStep(t *testing.T) {
	var e Engine
	n := 0
	count := func() { n++ }
	e.At(1, count)
	stopped := e.NewTimer(count)
	stopped.Set(2)
	e.At(3, count)
	moved := e.NewTimer(count)
	moved.Set(7)
	stopped.Stop()
	moved.Set(2.5)
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want the 3 live events", e.Pending())
	}
	steps := 0
	for e.Step() {
		steps++
	}
	if steps != 3 || n != 3 || e.Fired() != 3 {
		t.Fatalf("steps=%d n=%d fired=%d, want 3 each", steps, n, e.Fired())
	}
	// A stopped or moved timer is gone from where it was, so nothing drags
	// the clock to its old timestamp.
	if e.Now() != 3 {
		t.Fatalf("now = %v after the last live event at 3", e.Now())
	}
}

// A timer is idle once it has fired or been stopped: Stop is then a no-op
// that reaches no other event, however the heap has been refilled since, and
// Set arms it again. While its callback runs it still counts as pending.
func TestTimerIdleAndReuse(t *testing.T) {
	var e Engine
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }

	var a Timer
	a = e.NewTimer(func() {
		if got = append(got, "a"); len(got) == 1 && e.Pending() != 1 {
			t.Errorf("pending = %d inside the only event's callback, want 1", e.Pending())
		}
	})
	a.Set(1)
	e.Run(1)
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after the timer fired, want 0", e.Pending())
	}
	e.At(2, log("b")) // takes the heap position the timer had
	a.Stop()
	c := e.NewTimer(log("c"))
	c.Set(3)
	c.Stop()
	e.At(4, log("d"))
	c.Stop()
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want b and d: Stop on an idle timer removed an event", e.Pending())
	}
	a.Set(1.5)
	c.Set(2) // after b: same time, scheduled later
	e.Run(10)
	if want := []string{"a", "a", "b", "c", "d"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// refEngine is the engine this package shipped before the slab and indexed
// heap: container/heap over *refEvent, Cancel by clearing the callback and
// leaving the dead event queued. It is kept as the oracle the differential
// test drives the Engine against.
type refEvent struct {
	time float64
	seq  int64
	fn   func()
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type refEngine struct {
	pq  refHeap
	now float64
	seq int64
}

func (e *refEngine) at(t float64, fn func()) *refEvent {
	ev := &refEvent{time: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.pq, ev)
	return ev
}

func (e *refEngine) run(until float64) {
	for len(e.pq) > 0 && e.pq[0].time <= until {
		ev := heap.Pop(&e.pq).(*refEvent)
		e.now = ev.time
		if ev.fn != nil {
			fn := ev.fn
			ev.fn = nil // fired: a later cancel or reschedule finds it dead
			fn()
		}
	}
	if e.now < until {
		e.now = until
	}
}

// scheduler is what the random program needs of an engine. Timers are named
// by the program's own ids — the i-th call of newTimer makes timer i — so
// that both engines see the same operations.
type scheduler interface {
	at(t float64, fn func())
	newTimer(fn func())
	set(id int, t float64)
	stop(id int)
	run(until float64)
	now() float64
}

type newSched struct {
	e   Engine
	tms []Timer
}

func (s *newSched) at(t float64, fn func()) { s.e.At(t, fn) }
func (s *newSched) newTimer(fn func())      { s.tms = append(s.tms, s.e.NewTimer(fn)) }
func (s *newSched) set(id int, t float64)   { s.tms[id].Set(t) }
func (s *newSched) stop(id int)             { s.tms[id].Stop() }
func (s *newSched) run(until float64)       { s.e.Run(until) }
func (s *newSched) now() float64            { return s.e.Now() }

// refSched spells a timer the way Tier.reschedule used to drive its
// completion event: Set is cancel, then schedule afresh; Stop is cancel. It
// also tallies which of the situations the Engine treats specially the
// program reached, so that the test can insist on all of them.
type refSched struct {
	e      refEngine
	tms    []*refTimer
	firing *refTimer // the timer whose callback is running
	cover  *coverage
}

type refTimer struct {
	fn      func()
	ev      *refEvent // the pending event, if ev.fn != nil
	touched bool      // set or stopped since its callback began
}

// coverage counts what a firing timer's callback did to its own timer —
// re-armed it before, level with or after the earliest other pending event,
// stopped it, left it alone — and how often an armed timer was moved.
type coverage struct {
	rearmEarlier, rearmEqual, rearmLater, selfStop, leftIdle, movedArmed int
}

func (s *refSched) at(t float64, fn func()) { s.e.at(t, fn) }

func (s *refSched) newTimer(fn func()) {
	tm := &refTimer{}
	tm.fn = func() {
		s.firing, tm.touched = tm, false
		fn()
		if !tm.touched {
			s.cover.leftIdle++
		}
		s.firing = nil
	}
	s.tms = append(s.tms, tm)
}

func (s *refSched) set(id int, t float64) {
	tm := s.tms[id]
	if tm != s.firing {
		if tm.ev != nil && tm.ev.fn != nil {
			s.cover.movedArmed++
		}
	} else if next, ok := s.nextLive(); !ok || t < next {
		s.cover.rearmEarlier++
	} else if t == next {
		s.cover.rearmEqual++
	} else {
		s.cover.rearmLater++
	}
	s.stop(id)
	tm.ev = s.e.at(t, tm.fn)
}

func (s *refSched) stop(id int) {
	tm := s.tms[id]
	if tm.touched = true; tm.ev != nil {
		if tm == s.firing && tm.ev.fn == nil {
			s.cover.selfStop++
		}
		tm.ev.fn = nil
	}
}

// nextLive returns the time of the earliest event still to fire.
func (s *refSched) nextLive() (t float64, ok bool) {
	for _, ev := range s.e.pq {
		if ev.fn != nil && (!ok || ev.time < t) {
			t, ok = ev.time, true
		}
	}
	return t, ok
}

func (s *refSched) run(until float64) { s.e.run(until) }
func (s *refSched) now() float64      { return s.e.now }

// firing is one executed event: one-shots count up from 0 in the order the
// program scheduled them, timer i is -1-i.
type firing struct {
	id int
	at float64
}

// randomProgram runs a seeded program of At / After(0) / Timer.Set /
// Timer.Stop against s and returns every firing and the clock after every
// run. Delays come from a handful of values, so most timestamps collide and
// order rests on seq. Every callback sets and stops any of the timers, armed
// or idle; a timer's callback aims half of that at its own timer. Now and
// then a callback schedules a burst of one-shots, which outgrows the slot
// slab underneath the firing event.
func randomProgram(s scheduler, seed int64) (fired []firing, clocks []float64) {
	const maxOneShots, maxFirings, timers, burst = 6000, 12000, 6, 48
	rng := rand.New(rand.NewSource(seed))
	delays := []float64{0, 0, 0, 0.25, 0.5, 0.5, 1, 1, 2, 3.75}
	issued := 0
	var act func(self int)
	oneShot := func() {
		if issued == maxOneShots {
			return
		}
		id := issued
		issued++
		s.at(s.now()+delays[rng.Intn(len(delays))], func() {
			fired = append(fired, firing{id, s.now()})
			act(-1)
		})
	}
	act = func(self int) {
		if len(fired) >= maxFirings {
			return
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			tm := rng.Intn(timers)
			if self >= 0 && rng.Intn(2) == 0 {
				tm = self
			}
			switch op := rng.Intn(40); {
			case op == 0:
				for i := 0; i < burst; i++ {
					oneShot()
				}
			case op < 5:
				s.stop(tm)
			case op < 18:
				s.set(tm, s.now()+delays[rng.Intn(len(delays))])
			default:
				oneShot()
			}
		}
	}
	for i := 0; i < timers; i++ {
		i := i
		s.newTimer(func() {
			fired = append(fired, firing{-1 - i, s.now()})
			act(i)
		})
	}
	for i := 0; i < 50; i++ {
		oneShot()
	}
	for until := 0.0; until < 400; until += 0.5 + 3*rng.Float64() {
		s.run(until)
		clocks = append(clocks, s.now())
	}
	return fired, clocks
}

func TestEngineMatchesReference(t *testing.T) {
	var cover coverage
	grew := 0
	for seed := int64(1); seed <= 20; seed++ {
		eng, ref := &newSched{}, &refSched{cover: &cover}
		got, gotClocks := randomProgram(eng, seed)
		want, wantClocks := randomProgram(ref, seed)
		if len(want) < 500 {
			t.Fatalf("seed %d: the program fired only %d events", seed, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		for i := range wantClocks {
			if gotClocks[i] != wantClocks[i] {
				t.Fatalf("seed %d: clock after run %d is %v, reference %v", seed, i, gotClocks[i], wantClocks[i])
			}
		}
		if eng.e.Fired() != int64(len(want)) {
			t.Fatalf("seed %d: Fired() = %d after %d firings", seed, eng.e.Fired(), len(want))
		}
		if len(eng.e.slots) > 64 {
			grew++ // some callback's burst reallocated the slab it was fired from
		}
	}
	if min(cover.rearmEarlier, cover.rearmEqual, cover.rearmLater, cover.selfStop, cover.leftIdle, cover.movedArmed, grew) == 0 {
		t.Fatalf("the programs never reached some case: %+v, slab grown in %d programs", cover, grew)
	}
}

// steadyEngine returns an engine holding a thousand self-renewing one-shots,
// a hundred timers that re-arm themselves from their own callbacks and one
// timer that every one-shot moves, and a function that runs it for a further
// stretch of simulated time and reports the events fired.
func steadyEngine() (advance func(d float64) int64) {
	e := &Engine{}
	rng := rand.New(rand.NewSource(1))
	moving := e.NewTimer(func() {})
	var tick func()
	tick = func() {
		e.After(rng.Float64(), tick)
		moving.Set(e.Now() + 1)
	}
	for i := 0; i < 1000; i++ {
		e.At(rng.Float64(), tick)
	}
	for i := 0; i < 100; i++ {
		var tm Timer
		tm = e.NewTimer(func() { tm.Set(e.Now() + 0.1*rng.Float64()) })
		tm.Set(rng.Float64())
	}
	e.Run(2) // every slot and slice reaches its steady size
	return func(d float64) int64 {
		before := e.Fired()
		e.Run(e.Now() + d)
		return e.Fired() - before
	}
}

func TestEngineSteadyStateAllocatesNothing(t *testing.T) {
	advance := steadyEngine()
	events := int64(0)
	allocs := testing.AllocsPerRun(50, func() { events += advance(0.1) })
	if allocs != 0 || events < 10000 {
		t.Fatalf("%v allocations per 0.1 s of At/After/Set/Run over %d events, want 0 over at least 10000", allocs, events)
	}
}

func BenchmarkEngine(b *testing.B) {
	advance := steadyEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advance(1) // about 4000 events
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(1)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.Exp(2.5)
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("exp mean = %v, want ~2.5", mean)
	}
}

func TestRNGLogNormalMoments(t *testing.T) {
	g := NewRNG(2)
	const mean, cv, n = 10.0, 0.5, 200000
	mu, sigma := LogNormalParams(mean, cv)
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := g.LogNormalFrom(mu, sigma)
		if v < 0 {
			t.Fatal("lognormal sample must be non-negative")
		}
		sum += v
		sumsq += v * v
	}
	m := sum / n
	sd := math.Sqrt(sumsq/n - m*m)
	if math.Abs(m-mean) > 0.15 {
		t.Fatalf("lognormal mean = %v, want ~%v", m, mean)
	}
	if math.Abs(sd/m-cv) > 0.05 {
		t.Fatalf("lognormal cv = %v, want ~%v", sd/m, cv)
	}
}

// The precomputed-parameter sampler returns the same bits as the formula
// evaluated per sample from the mean and the coefficient of variation.
func TestRNGLogNormalFormsAgree(t *testing.T) {
	for _, c := range []struct{ mean, cv float64 }{{0.0012, 0.5}, {0.0008, 0.2}, {10, 0.8}, {1, 2.5}} {
		b, raw := NewRNG(7), rand.New(rand.NewSource(7))
		mu, sigma := LogNormalParams(c.mean, c.cv)
		for i := 0; i < 1000; i++ {
			sigma2 := math.Log(1 + c.cv*c.cv)
			want := math.Exp(raw.NormFloat64()*math.Sqrt(sigma2) + (math.Log(c.mean) - sigma2/2))
			if got := b.LogNormalFrom(mu, sigma); got != want {
				t.Fatalf("LogNormalFrom sample %d = %v, want %v", i, got, want)
			}
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	g := NewRNG(6)
	a := g.Fork()
	b := g.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams look identical (%d matches)", same)
	}
}

func TestTimerStopIdle(t *testing.T) {
	var e Engine
	tm := e.NewTimer(func() {})
	tm.Stop() // nothing scheduled yet: must not panic
	e.At(1, func() {})
	tm.Stop()
	if e.Pending() != 1 {
		t.Fatal("stopping an idle timer removed a live event")
	}
}
