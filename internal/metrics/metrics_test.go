package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPercentileNearestRank(t *testing.T) {
	data := make([]float64, 100)
	for i := range data {
		data[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct{ q, want float64 }{
		{95, 95}, {99, 99}, {50, 50}, {100, 100}, {1, 1},
	} {
		if got := Percentile(data, tc.q); got != tc.want {
			t.Fatalf("P%v = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestPercentileSingleElement(t *testing.T) {
	if got := Percentile([]float64{42}, 99); got != 42 {
		t.Fatalf("single element P99 = %v", got)
	}
	if got := Percentile(nil, 99); got != 0 {
		t.Fatalf("empty P99 = %v, want 0", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	data := []float64{3, 1, 2}
	Percentile(data, 99)
	if data[0] != 3 || data[1] != 1 || data[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestLatencyWindowFlush(t *testing.T) {
	var w LatencyWindow
	for i := 1; i <= 100; i++ {
		w.Record(float64(i))
	}
	p := w.Flush()
	if p.Count != 100 || p.Values[0] != 95 || p.P99() != 99 {
		t.Fatalf("flush: %+v", p)
	}
	if math.Abs(p.Mean-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", p.Mean)
	}
	p2 := w.Flush()
	if p2.Count != 0 || p2.P99() != 0 {
		t.Fatalf("window not reset: %+v", p2)
	}
}

// Flush sorts only the tail it reads; its five values must be the floats a
// full sort yields, at every window size around the rank boundaries and with
// the ties an interval of drops and repeated latencies has.
func TestLatencyWindowFlushMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 700; n++ {
		var w LatencyWindow
		data := make([]float64, n)
		for i := range data {
			switch rng.Intn(4) {
			case 0:
				data[i] = float64(rng.Intn(5)) // heavy ties
			case 1:
				data[i] = DropLatencyMS
			default:
				data[i] = rng.ExpFloat64() * 20
			}
			w.Record(data[i])
		}
		got := w.Flush()
		for i := 0; i < NumPercentiles; i++ {
			if want := Percentile(data, float64(95+i)); got.Values[i] != want {
				t.Fatalf("n=%d: p%d = %v, full sort says %v", n, 95+i, got.Values[i], want)
			}
		}
		if want := Mean(data); math.Abs(got.Mean-want) > 1e-9*want {
			t.Fatalf("n=%d: mean %v, want %v", n, got.Mean, want)
		}
	}
}

func TestLatencyWindowDrops(t *testing.T) {
	var w LatencyWindow
	w.Record(10)
	w.RecordDrop()
	p := w.Flush()
	if p.Drops != 1 || p.Count != 2 {
		t.Fatalf("drops: %+v", p)
	}
	if p.P99() != DropLatencyMS {
		t.Fatalf("dropped request should dominate tail: p99 = %v", p.P99())
	}
}

func TestQoSMeter(t *testing.T) {
	m := NewQoSMeter(100)
	obs := func(p99 float64, drops int, alloc float64) {
		var p Percentiles
		p.Values[NumPercentiles-1] = p99
		p.Drops = drops
		m.Observe(p, alloc)
	}
	obs(50, 0, 10)
	obs(150, 0, 20)
	obs(100, 0, 30) // boundary: meets
	obs(50, 1, 40)  // drop: violates even under target
	if got := m.MeetProb(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("meet prob = %v, want 0.5", got)
	}
	if m.MeanAlloc() != 25 || m.MaxAlloc() != 40 {
		t.Fatalf("alloc stats: mean=%v max=%v", m.MeanAlloc(), m.MaxAlloc())
	}
	if m.intervals != 4 {
		t.Fatalf("intervals = %d", m.intervals)
	}
}

func TestQoSMeterEmpty(t *testing.T) {
	m := NewQoSMeter(100)
	if m.MeetProb() != 1 || m.MeanAlloc() != 0 {
		t.Fatal("empty meter defaults wrong")
	}
}

func TestHistoryRing(t *testing.T) {
	h := NewHistory[int](3)
	if h.Full() {
		t.Fatal("new ring should not be full")
	}
	*h.PushSlot() = 1
	*h.PushSlot() = 2
	*h.PushSlot() = 3
	if !h.Full() || h.Len() != 3 {
		t.Fatal("ring should be full after 3 pushes")
	}
	*h.PushSlot() = 4 // evicts 1
	for i, want := range []int{2, 3, 4} {
		if h.At(i) != want {
			t.Fatalf("At(%d) = %v, want %v", i, h.At(i), want)
		}
	}
}

func TestHistoryIndexPanics(t *testing.T) {
	h := NewHistory[int](2)
	*h.PushSlot() = 1
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At should panic")
		}
	}()
	h.At(1)
}

func TestHistoryOrderProperty(t *testing.T) {
	f := func(capRaw uint8, n uint8) bool {
		capacity := int(capRaw%10) + 1
		h := NewHistory[int](capacity)
		for i := 0; i < int(n); i++ {
			*h.PushSlot() = i
		}
		// The items are strictly increasing and end at the last pushed value.
		for i := 1; i < h.Len(); i++ {
			if h.At(i) != h.At(i-1)+1 {
				return false
			}
		}
		if int(n) > 0 && h.At(h.Len()-1) != int(n)-1 {
			return false
		}
		return h.Len() == min(capacity, int(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The scheduler's stat window wraps its ring every Cap pushes for the whole
// run, so eviction order, Len and At must stay consistent through many
// wraparounds, not just the first.
func TestHistoryMultipleWraparounds(t *testing.T) {
	const capacity = 4
	h := NewHistory[int](capacity)
	for i := 0; i < 3*capacity+2; i++ { // 3½ trips around the ring
		*h.PushSlot() = i
		oldest := 0
		if i >= capacity {
			oldest = i - capacity + 1
		}
		if h.At(0) != oldest {
			t.Fatalf("after push %d: At(0) = %d, want %d", i, h.At(0), oldest)
		}
		if h.Len() != min(capacity, i+1) {
			t.Fatalf("after push %d: Len = %d", i, h.Len())
		}
		for j := 0; j < h.Len(); j++ {
			if h.At(j) != oldest+j {
				t.Fatalf("after push %d: At(%d) = %d, want %d", i, j, h.At(j), oldest+j)
			}
		}
	}
}

// PushSlot hands back the row it evicts, so a ring of reused rows keeps
// exactly capacity backing arrays once it has wrapped, while Len, Full and
// At read as if every push had stored a fresh row. Capacity 1 is the edge
// where the evicted row is also the only one the window held.
func TestHistoryPushSlotRecyclesEvictedRow(t *testing.T) {
	for _, capacity := range []int{1, 5} {
		h := NewHistory[[]int](capacity)
		var pushed [][]int // what a ring of fresh rows would hold, oldest first
		made := 0
		for i := 0; i < 4*capacity+1; i++ {
			slot := h.PushSlot()
			switch {
			case i < capacity && *slot != nil:
				t.Fatalf("cap %d push %d: slot of a ring still filling holds %v, want nil", capacity, i, *slot)
			case i >= capacity && (len(*slot) != 1 || (*slot)[0] != i-capacity):
				t.Fatalf("cap %d push %d: slot holds %v, want the evicted row [%d]", capacity, i, *slot, i-capacity)
			}
			if *slot == nil {
				*slot = make([]int, 1)
				made++
			}
			(*slot)[0] = i
			pushed = append(pushed, []int{i})
			if len(pushed) > capacity {
				pushed = pushed[1:]
			}
			if h.Len() != len(pushed) || h.Full() != (len(pushed) == capacity) {
				t.Fatalf("cap %d push %d: Len %d Full %v, want %d %v", capacity, i, h.Len(), h.Full(), len(pushed), len(pushed) == capacity)
			}
			for j, want := range pushed {
				if got := h.At(j); got[0] != want[0] {
					t.Fatalf("cap %d push %d: At(%d) = %v, want %v", capacity, i, j, got, want)
				}
			}
		}
		if made != capacity {
			t.Fatalf("cap %d: %d rows made over %d pushes, want %d", capacity, made, 4*capacity+1, capacity)
		}
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("mean = %v", got)
	}
}

// Property: percentiles are monotone in q and bounded by data min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		data := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			v = math.Mod(math.Abs(v), 1000)
			if math.IsNaN(v) {
				v = 0
			}
			data[i] = v
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		prev := math.Inf(-1)
		for q := 1.0; q <= 100; q += 7 {
			p := Percentile(data, q)
			if p < prev || p < lo || p > hi {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
