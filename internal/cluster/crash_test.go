package cluster

import (
	"testing"

	"sinan/internal/sim"
)

// A replica crash must shrink both the effective CPU capacity and the
// connection-slot pool, and a restart must re-admit queued requests.
func TestReplicaCrashReducesCapacityAndRecovers(t *testing.T) {
	eng := &sim.Engine{}
	c := New(eng, sim.NewRNG(1), []TierConfig{
		{Name: "svc", InitCPU: 4, MaxCPU: 8, ConnsPerReplica: 2, Replicas: 2, WorkCV: 0.001},
	})
	tier := c.Tier("svc")

	if got := tier.liveSlots; got != 4 {
		t.Fatalf("healthy slots = %d, want 4", got)
	}
	tier.SetAliveFraction(0.5)
	if got := tier.liveSlots; got != 2 {
		t.Fatalf("half-crashed slots = %d, want 2", got)
	}
	if got := tier.effCPU(); got != 2 {
		t.Fatalf("half-crashed CPU = %v, want 2", got)
	}

	// Four concurrent requests of 1 CPU-second each: with 2 slots and 2
	// effective cores, two run at full rate while two wait for slots.
	var lats []float64
	for i := 0; i < 4; i++ {
		c.Submit(Seq("svc", 1), func(l float64, dropped bool) {
			if dropped {
				t.Error("request dropped")
			}
			lats = append(lats, l)
		})
	}
	if tier.Inflight() != 2 || tier.QueueLen() != 2 {
		t.Fatalf("inflight=%d queued=%d, want 2/2", tier.Inflight(), tier.QueueLen())
	}

	// Restore at t=0.5: the two queued requests must be admitted immediately.
	eng.At(0.5, func() { tier.SetAliveFraction(1) })
	eng.Run(0.5)
	if tier.AliveFraction() != 1 {
		t.Fatal("alive fraction not restored")
	}
	if tier.Inflight() != 4 || tier.QueueLen() != 0 {
		t.Fatalf("post-restore inflight=%d queued=%d, want 4/0", tier.Inflight(), tier.QueueLen())
	}
	eng.Run(100)
	if len(lats) != 4 {
		t.Fatalf("completed %d requests, want 4", len(lats))
	}
}

// A fully-crashed tier serves nothing; service resumes after restart and
// every queued request still completes exactly once.
func TestFullTierCrashFreezesService(t *testing.T) {
	eng := &sim.Engine{}
	c := New(eng, sim.NewRNG(2), []TierConfig{
		{Name: "svc", InitCPU: 2, MaxCPU: 4, ConnsPerReplica: 8, WorkCV: 0.001},
	})
	tier := c.Tier("svc")
	done := 0
	for i := 0; i < 3; i++ {
		c.Submit(Seq("svc", 0.1), func(float64, bool) { done++ })
	}
	tier.SetAliveFraction(0)
	eng.Run(5)
	if done != 0 {
		t.Fatalf("crashed tier completed %d requests", done)
	}
	tier.SetAliveFraction(1)
	eng.Run(10)
	if done != 3 {
		t.Fatalf("completed %d requests after restart, want 3", done)
	}
	if got := c.Completed(); got != 3 {
		t.Fatalf("cluster completed = %d", got)
	}
}

// Crashes are part of the deterministic simulation: identical seeds and
// crash schedules produce identical latency sequences.
func TestReplicaCrashDeterministic(t *testing.T) {
	run := func() []float64 {
		eng := &sim.Engine{}
		rng := sim.NewRNG(7)
		c := New(eng, rng.Fork(), []TierConfig{
			{Name: "a", InitCPU: 2, MaxCPU: 8, ConnsPerReplica: 4},
			{Name: "b", InitCPU: 2, MaxCPU: 8, ConnsPerReplica: 4},
		})
		tree := Seq("a", 0.02, Seq("b", 0.03))
		var lats []float64
		for i := 0; i < 50; i++ {
			at := rng.Float64() * 10
			eng.At(at, func() {
				c.Submit(tree, func(l float64, _ bool) { lats = append(lats, l) })
			})
		}
		eng.At(3, func() { c.Tier("b").SetAliveFraction(0.25) })
		eng.At(6, func() { c.Tier("b").SetAliveFraction(1) })
		eng.Run(60)
		return lats
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 50 {
		t.Fatalf("completions %d vs %d, want 50", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
