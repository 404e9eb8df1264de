package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"sort"
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

func TestEngineCancel(t *testing.T) {
	var e Engine
	fired := false
	ev := e.At(1, func() { fired = true })
	e.Cancel(ev)
	e.Run(2)
	if fired {
		t.Fatal("cancelled event fired")
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
	e.At(1, func() { n++ })
	e.Cancel(e.At(2, func() { n++ }))
	e.At(3, func() { n++ })
	e.Cancel(e.At(7, func() { n++ }))
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want the 2 live events", e.Pending())
	}
	steps := 0
	for e.Step() {
		steps++
	}
	if steps != 2 || n != 2 {
		t.Fatalf("steps=%d n=%d, want 2 and 2", steps, n)
	}
	// A cancelled event is gone from the queue, so nothing drags the clock
	// to its timestamp.
	if e.Now() != 3 {
		t.Fatalf("now = %v after the last live event at 3", e.Now())
	}
}

// A handle goes stale when its event fires or is cancelled, and stays stale
// when the slot is given to another event.
func TestEngineStaleHandle(t *testing.T) {
	var e Engine
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }

	firedH := e.At(1, log("a"))
	e.Run(1)
	reused := e.At(2, log("b"))
	if reused.slot != firedH.slot {
		t.Fatalf("slot %d not reused (got %d): the test no longer covers reuse", firedH.slot, reused.slot)
	}
	e.Cancel(firedH)
	if e.Reschedule(firedH, 9) {
		t.Fatal("rescheduled through the handle of a fired event")
	}

	cancelled := e.At(3, log("c"))
	e.Cancel(cancelled)
	again := e.At(4, log("d"))
	if again.slot != cancelled.slot {
		t.Fatalf("slot %d not reused (got %d)", cancelled.slot, again.slot)
	}
	e.Cancel(cancelled)
	if e.Reschedule(cancelled, 9) || e.Reschedule(Handle{}, 9) {
		t.Fatal("rescheduled through a cancelled or zero handle")
	}

	if !e.Reschedule(again, 1.5) {
		t.Fatal("live handle not rescheduled")
	}
	e.Run(10)
	if want := []string{"a", "d", "b"}; !slices.Equal(got, want) {
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

// scheduler is what the random program needs of an engine. Events are named
// by the program's own ids — the i-th call of at makes event i — so that
// both engines see the same operations.
type scheduler interface {
	at(t float64, fn func())
	cancel(id int)
	reschedule(id int, t float64)
	run(until float64)
	now() float64
}

type newSched struct {
	e  Engine
	hs []Handle
}

func (s *newSched) at(t float64, fn func())      { s.hs = append(s.hs, s.e.At(t, fn)) }
func (s *newSched) cancel(id int)                { s.e.Cancel(s.hs[id]) }
func (s *newSched) reschedule(id int, t float64) { s.e.Reschedule(s.hs[id], t) }
func (s *newSched) run(until float64)            { s.e.Run(until) }
func (s *newSched) now() float64                 { return s.e.Now() }

type refSched struct {
	e   refEngine
	evs []*refEvent
}

func (s *refSched) at(t float64, fn func()) { s.evs = append(s.evs, s.e.at(t, fn)) }
func (s *refSched) cancel(id int)           { s.evs[id].fn = nil }
func (s *refSched) reschedule(id int, t float64) {
	// What Tier.reschedule used to do: cancel, then schedule afresh.
	if fn := s.evs[id].fn; fn != nil {
		s.evs[id].fn = nil
		s.evs[id] = s.e.at(t, fn)
	}
}
func (s *refSched) run(until float64) { s.e.run(until) }
func (s *refSched) now() float64      { return s.e.now }

type firing struct {
	id int
	at float64
}

// randomProgram runs a seeded program of at / after(0) / cancel / reschedule
// against s and returns every firing and the clock after every run. Delays
// come from a handful of values, so most timestamps collide and order rests
// on seq; cancel and reschedule pick any id ever issued, stale ones
// included.
func randomProgram(s scheduler, seed int64) (fired []firing, clocks []float64) {
	const maxEvents = 4000
	rng := rand.New(rand.NewSource(seed))
	delays := []float64{0, 0, 0, 0.25, 0.5, 0.5, 1, 1, 2, 3.75}
	issued := 0
	var schedule func(t float64)
	schedule = func(t float64) {
		if issued == maxEvents {
			return
		}
		id := issued
		issued++
		s.at(t, func() {
			fired = append(fired, firing{id, s.now()})
			for n := 1 + rng.Intn(3); n > 0; n-- {
				switch d := delays[rng.Intn(len(delays))]; rng.Intn(8) {
				case 0:
					s.cancel(rng.Intn(issued))
				case 1, 2:
					s.reschedule(rng.Intn(issued), s.now()+d)
				default:
					schedule(s.now() + d)
				}
			}
		})
	}
	for i := 0; i < 50; i++ {
		schedule(delays[rng.Intn(len(delays))])
	}
	for until := 0.0; until < 400; until += 0.5 + 3*rng.Float64() {
		s.run(until)
		clocks = append(clocks, s.now())
	}
	return fired, clocks
}

func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got, gotClocks := randomProgram(&newSched{}, seed)
		want, wantClocks := randomProgram(&refSched{}, seed)
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
	}
}

// steadyEngine returns an engine holding a thousand self-renewing timers
// plus one event that every firing moves, and a function that runs it for a
// further stretch of simulated time.
func steadyEngine() (advance func(d float64)) {
	e := &Engine{}
	rng := rand.New(rand.NewSource(1))
	noop := func() {}
	var moving Handle
	var tick func()
	tick = func() {
		e.After(rng.Float64(), tick)
		if !e.Reschedule(moving, e.Now()+1) {
			moving = e.At(e.Now()+1, noop)
		}
	}
	for i := 0; i < 1000; i++ {
		e.At(rng.Float64(), tick)
	}
	e.Run(2) // every slot and slice reaches its steady size
	return func(d float64) { e.Run(e.Now() + d) }
}

func TestEngineSteadyStateAllocatesNothing(t *testing.T) {
	advance := steadyEngine()
	if allocs := testing.AllocsPerRun(50, func() { advance(0.1) }); allocs != 0 {
		t.Fatalf("%v allocations per 0.1 s of At/After/Reschedule/Run, want 0", allocs)
	}
}

func BenchmarkEngine(b *testing.B) {
	advance := steadyEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advance(1) // about 2000 events
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

func TestEngineCancelZeroHandle(t *testing.T) {
	var e Engine
	e.Cancel(Handle{}) // nothing scheduled yet: must not panic
	e.At(1, func() {})
	e.Cancel(Handle{})
	if e.Pending() != 1 {
		t.Fatal("the zero handle cancelled a live event")
	}
}
