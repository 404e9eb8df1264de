package workload

import (
	"math"
	"strings"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/sim"
)

func TestConstantPattern(t *testing.T) {
	p := Constant(100)
	if p.RPS(0) != 100 || p.RPS(1e6) != 100 {
		t.Fatal("constant pattern should be constant")
	}
}

func TestDiurnalPattern(t *testing.T) {
	d := Diurnal{Min: 50, Max: 250, Period: 2000}
	if got := d.RPS(0); math.Abs(got-50) > 1e-9 {
		t.Fatalf("diurnal start = %v, want 50", got)
	}
	if got := d.RPS(1000); math.Abs(got-250) > 1e-9 {
		t.Fatalf("diurnal peak = %v, want 250", got)
	}
	if got := d.RPS(2000); math.Abs(got-50) > 1e-9 {
		t.Fatalf("diurnal wrap = %v, want 50", got)
	}
	for ts := 0.0; ts < 2000; ts += 37 {
		v := d.RPS(ts)
		if v < 50-1e-9 || v > 250+1e-9 {
			t.Fatalf("diurnal out of range at %v: %v", ts, v)
		}
	}
}

func TestStepsPattern(t *testing.T) {
	s := Steps{{Until: 10, RPS: 5}, {Until: 20, RPS: 15}}
	for _, tc := range []struct{ at, want float64 }{{0, 5}, {9.9, 5}, {10, 15}, {25, 15}} {
		if got := s.RPS(tc.at); got != tc.want {
			t.Fatalf("steps(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if (Steps{}).RPS(5) != 0 {
		t.Fatal("empty steps should yield 0")
	}
}

func TestGeneratorRate(t *testing.T) {
	eng := &sim.Engine{}
	app := apps.NewHotelReservation()
	cl := cluster.New(eng, sim.NewRNG(1), app.Tiers)
	g := NewGenerator(cl, app, sim.NewRNG(2), Constant(200))
	g.Start()
	eng.Run(50)
	got := float64(g.Submitted()) / 50
	if math.Abs(got-200) > 10 {
		t.Fatalf("arrival rate = %v, want ~200", got)
	}
}

func TestGeneratorMix(t *testing.T) {
	eng := &sim.Engine{}
	app := apps.NewSocialNetwork()
	cl := cluster.New(eng, sim.NewRNG(1), app.Tiers)
	g := NewGenerator(cl, app, sim.NewRNG(3), Constant(500))
	counts := make([]int, len(app.Requests))
	for n := 0; n < 30000; n++ {
		tree := g.pick()
		for i, r := range app.Requests {
			if r.Tree == tree {
				counts[i]++
			}
		}
	}
	total := float64(g.Submitted())
	// Default mix 5:80:15.
	wantFrac := []float64{0.05, 0.80, 0.15}
	for i, c := range counts {
		frac := float64(c) / total
		if math.Abs(frac-wantFrac[i]) > 0.02 {
			t.Fatalf("type %d fraction = %v, want ~%v", i, frac, wantFrac[i])
		}
	}
}

func TestGeneratorRecordsLatencies(t *testing.T) {
	eng := &sim.Engine{}
	app := apps.NewHotelReservation()
	cl := cluster.New(eng, sim.NewRNG(1), app.Tiers)
	g := NewGenerator(cl, app, sim.NewRNG(4), Constant(100))
	g.Start()
	eng.Run(5)
	p := g.Window.Flush()
	if p.Count < 300 {
		t.Fatalf("only %d latencies recorded", p.Count)
	}
	if p.P99() <= 0 {
		t.Fatal("latency percentiles should be positive")
	}
	// Lightly-loaded hotel app should be far below QoS.
	if p.P99() > app.QoSMS {
		t.Fatalf("idle p99 = %vms exceeds QoS", p.P99())
	}
}

func TestGeneratorZeroRateRecovers(t *testing.T) {
	eng := &sim.Engine{}
	app := apps.NewHotelReservation()
	cl := cluster.New(eng, sim.NewRNG(1), app.Tiers)
	g := NewGenerator(cl, app, sim.NewRNG(6), Steps{{Until: 2, RPS: 0}, {Until: 100, RPS: 50}})
	g.Start()
	eng.Run(1.5)
	if g.Submitted() != 0 {
		t.Fatal("submitted during zero-rate window")
	}
	eng.Run(10)
	if g.Submitted() == 0 {
		t.Fatal("generator never resumed after zero-rate window")
	}
}

func TestReplayPattern(t *testing.T) {
	r := Replay{RPSSeries: []float64{10, 20, 30}}
	for _, tc := range []struct{ at, want float64 }{
		{0, 10}, {0.9, 10}, {1, 20}, {2.5, 30}, {99, 30},
	} {
		if got := r.RPS(tc.at); got != tc.want {
			t.Fatalf("replay(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if (Replay{}).RPS(1) != 0 {
		t.Fatal("empty replay should be zero")
	}
	scaled := Replay{RPSSeries: []float64{10, 20}, Step: 5}
	if scaled.RPS(4.9) != 10 || scaled.RPS(5.1) != 20 {
		t.Fatal("replay step scaling broken")
	}
}

// A request in steady state costs no allocation of its own: stage records,
// engine slots and callbacks are all recycled. What remains is slice growth
// when a burst runs past every earlier peak, far below one per request; a
// closure or a record per stage would show as eight or more.
// A pattern that yields NaN must stop the run where it happens: rate <= 0 is
// false for NaN, so the generator would otherwise arm its timer at a NaN time.
func TestNaNRatePanics(t *testing.T) {
	app := apps.NewHotelReservation()
	cl := cluster.New(&sim.Engine{}, sim.NewRNG(1), app.Tiers)
	g := NewGenerator(cl, app, sim.NewRNG(2), Replay{RPSSeries: []float64{math.NaN()}})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "NaN") {
			t.Fatalf("recovered %q, want the engine's panic naming NaN", msg)
		}
	}()
	g.Start()
}

func TestRequestAllocations(t *testing.T) {
	for _, c := range []struct {
		name string
		app  *apps.App
		rps  float64
	}{{"social", apps.NewSocialNetwork(), 300}, {"hotel", apps.NewHotelReservation(), 2000}} {
		eng := &sim.Engine{}
		cl := cluster.New(eng, sim.NewRNG(1), c.app.Tiers)
		g := NewGenerator(cl, c.app, sim.NewRNG(2), Constant(c.rps))
		g.Start()
		second := func() {
			eng.Run(eng.Now() + 1)
			g.FlushWindow() // as the managed loop does once per interval
		}
		for i := 0; i < 5; i++ {
			second()
		}
		before := g.Submitted()
		const seconds = 10
		allocs := testing.AllocsPerRun(seconds, second)
		// AllocsPerRun makes one extra warm-up call.
		perRequest := allocs * (seconds + 1) / float64(g.Submitted()-before)
		t.Logf("%s: %.4f allocations per request", c.name, perRequest)
		if perRequest > 0.5 {
			t.Errorf("%s: %.2f allocations per request after warm-up, want under 0.5", c.name, perRequest)
		}
	}
}
