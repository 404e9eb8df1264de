package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"sinan/internal/sim"
)

// Property: under arbitrary interleavings of CPU-limit changes and stall
// windows, every submitted request still completes exactly once, latencies
// are non-negative, and the virtual-time processor sharing never loses or
// duplicates work.
func TestRequestsSurviveChaosProperty(t *testing.T) {
	f := func(seed int64, nReq uint8, nOps uint8) bool {
		eng := &sim.Engine{}
		rng := sim.NewRNG(seed)
		c := New(eng, sim.NewRNG(seed+1), []TierConfig{
			{Name: "a", InitCPU: 2, MinCPU: 0.2, MaxCPU: 8, ConnsPerReplica: 4,
				StallInterval: 3, StallBase: 0.2},
			{Name: "b", InitCPU: 1, MinCPU: 0.2, MaxCPU: 8, ConnsPerReplica: 8},
		})
		tree := Seq("a", 0.03, Seq("b", 0.02))
		n := int(nReq%40) + 1
		done := 0
		for i := 0; i < n; i++ {
			at := rng.Float64() * 5
			eng.At(at, func() {
				c.Submit(tree, func(l float64, d bool) {
					if l < 0 {
						t.Error("negative latency")
					}
					done++
				})
			})
		}
		// Random allocation changes interleaved with arrivals and stalls.
		for i := 0; i < int(nOps%20); i++ {
			at := rng.Float64() * 6
			cores := 0.2 + rng.Float64()*4
			eng.At(at, func() {
				c.byName["a"].SetCPULimit(cores)
				c.byName["b"].SetCPULimit(5 - cores)
			})
		}
		eng.Run(500)
		return done == n && c.Completed() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: interval CPU usage never exceeds the time-weighted limit, even
// across mid-interval limit changes.
func TestUsageBoundedAcrossLimitChanges(t *testing.T) {
	eng := &sim.Engine{}
	c := New(eng, sim.NewRNG(3), []TierConfig{
		{Name: "a", InitCPU: 4, MinCPU: 0.2, MaxCPU: 8, WorkCV: 1e-9},
	})
	for i := 0; i < 50; i++ {
		c.Submit(Seq("a", 0.5), nil)
	}
	// Limit drops to 1 core halfway through the interval.
	eng.At(0.5, func() { c.byName["a"].SetCPULimit(1) })
	eng.Run(1)
	usage := readStats(c)[0].CPUUsage
	// Max possible: 4 cores × 0.5s + 1 core × 0.5s = 2.5 core-seconds.
	if usage > 2.5+1e-9 {
		t.Fatalf("usage %v exceeds time-weighted limit 2.5", usage)
	}
	if usage < 2.4 {
		t.Fatalf("usage %v should be near the limit with 50 queued jobs", usage)
	}
}

// A stalled tier consumes no CPU while stalled and reports the stall time.
func TestStallAccounting(t *testing.T) {
	eng := &sim.Engine{}
	c := New(eng, sim.NewRNG(4), []TierConfig{
		{Name: "redis", InitCPU: 2, WorkCV: 1e-9, StallInterval: 1, StallBase: 0.4},
	})
	eng.At(0.99, func() {
		for i := 0; i < 5; i++ {
			c.Submit(Seq("redis", 0.1), nil)
		}
	})
	eng.Run(2)
	s := readStats(c)[0]
	if s.Stalled < 0.4-1e-9 {
		t.Fatalf("stall time %v not accounted (want ≥ 0.4)", s.Stalled)
	}
	// Work done: 5×0.1 = 0.5 core-seconds at most, none during the stall.
	if s.CPUUsage > 0.5+1e-9 {
		t.Fatalf("cpu usage %v too high", s.CPUUsage)
	}
}

// Property: total latency of a fixed workload is monotone (weakly) in the
// stall duration.
func TestStallsOnlyHurt(t *testing.T) {
	run := func(stall float64) float64 {
		eng := &sim.Engine{}
		cfg := TierConfig{Name: "a", InitCPU: 2, WorkCV: 1e-9}
		if stall > 0 {
			cfg.StallInterval = 2
			cfg.StallBase = stall
		}
		c := New(eng, sim.NewRNG(5), []TierConfig{cfg})
		totalLat := 0.0
		for i := 0; i < 30; i++ {
			at := float64(i) * 0.2
			eng.At(at, func() {
				c.Submit(Seq("a", 0.05), func(l float64, d bool) { totalLat += l })
			})
		}
		eng.Run(100)
		return totalLat
	}
	prev := -1.0
	for _, stall := range []float64{0, 0.1, 0.5, 1.0} {
		tot := run(stall)
		if tot < prev-1e-9 {
			t.Fatalf("longer stalls reduced total latency: %v at stall=%v", tot, stall)
		}
		prev = tot
	}
	if math.IsNaN(prev) {
		t.Fatal("nan latency")
	}
}
