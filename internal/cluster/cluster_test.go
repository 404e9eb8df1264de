package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"sinan/internal/sim"
)

const detCV = 1e-9 // effectively deterministic service times

func mkCluster(t *testing.T, cfgs ...TierConfig) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := &sim.Engine{}
	return eng, New(eng, sim.NewRNG(1), cfgs)
}

func TestSingleRequestLatency(t *testing.T) {
	eng, c := mkCluster(t, TierConfig{Name: "a", InitCPU: 4, WorkCV: detCV})
	var lat float64
	c.Submit(Seq("a", 0.1), func(l float64, dropped bool) { lat = l })
	eng.Run(10)
	if math.Abs(lat-0.1) > 1e-6 {
		t.Fatalf("latency = %v, want 0.1", lat)
	}
}

func TestProcessorSharingTwoJobs(t *testing.T) {
	eng, c := mkCluster(t, TierConfig{Name: "a", InitCPU: 1, MinCPU: 0.1, WorkCV: detCV})
	var lats []float64
	for i := 0; i < 2; i++ {
		c.Submit(Seq("a", 1.0), func(l float64, dropped bool) { lats = append(lats, l) })
	}
	eng.Run(10)
	// Two 1s jobs sharing 1 core finish together at t=2.
	if len(lats) != 2 {
		t.Fatalf("expected 2 completions, got %d", len(lats))
	}
	for _, l := range lats {
		if math.Abs(l-2.0) > 1e-6 {
			t.Fatalf("PS latency = %v, want 2.0", l)
		}
	}
}

func TestFractionalCPULimit(t *testing.T) {
	eng, c := mkCluster(t, TierConfig{Name: "a", InitCPU: 0.5, MinCPU: 0.1, WorkCV: detCV})
	var lat float64
	c.Submit(Seq("a", 1.0), func(l float64, dropped bool) { lat = l })
	eng.Run(10)
	if math.Abs(lat-2.0) > 1e-6 {
		t.Fatalf("latency under 0.5-core limit = %v, want 2.0", lat)
	}
}

func TestPerJobOneCoreCap(t *testing.T) {
	eng, c := mkCluster(t, TierConfig{Name: "a", InitCPU: 4, WorkCV: detCV})
	var lats []float64
	for i := 0; i < 2; i++ {
		c.Submit(Seq("a", 1.0), func(l float64, dropped bool) { lats = append(lats, l) })
	}
	eng.Run(10)
	// 4 cores, 2 jobs: each gets one full core; both finish at t=1.
	for _, l := range lats {
		if math.Abs(l-1.0) > 1e-6 {
			t.Fatalf("latency = %v, want 1.0 (one-core cap)", l)
		}
	}
}

func TestConnectionPoolBackpressure(t *testing.T) {
	eng, c := mkCluster(t,
		TierConfig{Name: "a", InitCPU: 4, ConnsPerReplica: 1, Replicas: 1, WorkCV: detCV})
	var lats []float64
	for i := 0; i < 3; i++ {
		c.Submit(Seq("a", 1.0), func(l float64, dropped bool) { lats = append(lats, l) })
	}
	eng.Run(10)
	// One slot: requests serialise — latencies 1, 2, 3.
	want := []float64{1, 2, 3}
	for i, l := range lats {
		if math.Abs(l-want[i]) > 1e-6 {
			t.Fatalf("lats = %v, want %v", lats, want)
		}
	}
}

func TestAdmissionQueueDrop(t *testing.T) {
	eng, c := mkCluster(t,
		TierConfig{Name: "a", InitCPU: 1, ConnsPerReplica: 1, MaxQueue: 2, WorkCV: detCV})
	drops := 0
	for i := 0; i < 5; i++ {
		c.Submit(Seq("a", 1.0), func(l float64, dropped bool) {
			if dropped {
				drops++
			}
		})
	}
	eng.Run(20)
	if drops != 2 {
		t.Fatalf("drops = %d, want 2 (1 in service + 2 queued + 2 dropped)", drops)
	}
	if c.DroppedRequests() != 2 {
		t.Fatalf("cluster drop counter = %d, want 2", c.DroppedRequests())
	}
}

func TestDownstreamBackpressure(t *testing.T) {
	// Front holds its slot while the slow backend runs; with one front slot,
	// requests serialise at the front even though the front itself is fast.
	eng, c := mkCluster(t,
		TierConfig{Name: "front", InitCPU: 4, ConnsPerReplica: 1, WorkCV: detCV},
		TierConfig{Name: "back", InitCPU: 1, MinCPU: 0.1, ConnsPerReplica: 64, WorkCV: detCV})
	var lats []float64
	tree := Seq("front", 0.001, Seq("back", 1.0))
	for i := 0; i < 2; i++ {
		c.Submit(tree, func(l float64, dropped bool) { lats = append(lats, l) })
	}
	eng.Run(20)
	if len(lats) != 2 {
		t.Fatalf("want 2 completions, got %d", len(lats))
	}
	if lats[1] < 1.9 {
		t.Fatalf("second request should queue behind first at the front: %v", lats)
	}
}

func TestParallelVsSequentialChildren(t *testing.T) {
	cfgs := []TierConfig{
		{Name: "root", InitCPU: 4, WorkCV: detCV},
		{Name: "c1", InitCPU: 4, WorkCV: detCV},
		{Name: "c2", InitCPU: 4, WorkCV: detCV},
	}
	eng, c := mkCluster(t, cfgs...)
	var parLat float64
	c.Submit(Par("root", 0, Seq("c1", 0.5), Seq("c2", 0.5)), func(l float64, d bool) { parLat = l })
	eng.Run(10)

	eng2, c2 := mkCluster(t, cfgs...)
	var seqLat float64
	c2.Submit(Seq("root", 0, Seq("c1", 0.5), Seq("c2", 0.5)), func(l float64, d bool) { seqLat = l })
	eng2.Run(10)

	if math.Abs(parLat-0.5) > 1e-5 {
		t.Fatalf("parallel latency = %v, want 0.5", parLat)
	}
	if math.Abs(seqLat-1.0) > 1e-5 {
		t.Fatalf("sequential latency = %v, want 1.0", seqLat)
	}
}

func TestSetCPULimitMidRun(t *testing.T) {
	eng, c := mkCluster(t, TierConfig{Name: "a", InitCPU: 1, MinCPU: 0.1, WorkCV: detCV})
	var lat float64
	c.Submit(Seq("a", 1.0), func(l float64, d bool) { lat = l })
	eng.At(0.5, func() { c.byName["a"].SetCPULimit(0.5) })
	eng.Run(10)
	// 0.5s at rate 1 (0.5 work done) + 0.5 work at rate 0.5 = 1.0s more.
	if math.Abs(lat-1.5) > 1e-6 {
		t.Fatalf("latency after mid-run downscale = %v, want 1.5", lat)
	}
}

func TestSetCPULimitClampAndQuantise(t *testing.T) {
	_, c := mkCluster(t, TierConfig{Name: "a", MinCPU: 0.2, MaxCPU: 2, InitCPU: 1})
	tier := c.byName["a"]
	tier.SetCPULimit(5)
	if tier.cpuLimit != 2 {
		t.Fatalf("limit = %v, want clamp to 2", tier.cpuLimit)
	}
	tier.SetCPULimit(0.01)
	if tier.cpuLimit != 0.2 {
		t.Fatalf("limit = %v, want clamp to 0.2", tier.cpuLimit)
	}
	tier.SetCPULimit(1.234)
	if tier.cpuLimit != 1.2 {
		t.Fatalf("limit = %v, want 1.2 (0.1 quantisation)", tier.cpuLimit)
	}
}

func TestStallInjectionDelaysService(t *testing.T) {
	eng, c := mkCluster(t, TierConfig{
		Name: "redis", InitCPU: 4, WorkCV: detCV,
		StallInterval: 1.0, StallBase: 0.5,
	})
	var lat float64
	// Submit right before the stall at t=1: job needs 0.2s, stall inserts 0.5s.
	eng.At(0.95, func() {
		c.Submit(Seq("redis", 0.2), func(l float64, d bool) { lat = l })
	})
	eng.Run(10)
	// 0.05s of work done before the stall, then 0.5s stalled, then 0.15s.
	if math.Abs(lat-0.7) > 1e-6 {
		t.Fatalf("stalled latency = %v, want 0.7", lat)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, c := mkCluster(t,
		TierConfig{Name: "a", InitCPU: 2, WorkCV: detCV},
		TierConfig{Name: "b", InitCPU: 2, WorkCV: detCV})
	c.Submit(Seq("a", 0.5, Seq("b", 0.25)), nil)
	eng.Run(1)
	stats := readStats(c)
	if math.Abs(stats[0].CPUUsage-0.5) > 1e-6 {
		t.Fatalf("tier a cpu usage = %v, want 0.5", stats[0].CPUUsage)
	}
	if math.Abs(stats[1].CPUUsage-0.25) > 1e-6 {
		t.Fatalf("tier b cpu usage = %v, want 0.25", stats[1].CPUUsage)
	}
	// a: rx 1 (client call) + 1 (b reply) = 2; tx 1 (call b) + 1 (reply client) = 2.
	if stats[0].NetRx != 2 || stats[0].NetTx != 2 {
		t.Fatalf("tier a packets rx=%v tx=%v, want 2/2", stats[0].NetRx, stats[0].NetTx)
	}
	if stats[1].NetRx != 1 || stats[1].NetTx != 1 {
		t.Fatalf("tier b packets rx=%v tx=%v, want 1/1", stats[1].NetRx, stats[1].NetTx)
	}
	// Accumulators reset after read.
	stats2 := readStats(c)
	if stats2[0].CPUUsage != 0 || stats2[0].NetRx != 0 {
		t.Fatal("interval accumulators not reset")
	}
}

func TestStatsCPULimitReported(t *testing.T) {
	_, c := mkCluster(t, TierConfig{Name: "a", InitCPU: 1.6})
	s := readStats(c)
	if s[0].CPULimit != 1.6 {
		t.Fatalf("CPULimit = %v, want 1.6", s[0].CPULimit)
	}
}

func TestRSSGrowsWithQueueing(t *testing.T) {
	eng, c := mkCluster(t, TierConfig{
		Name: "a", InitCPU: 0.2, MinCPU: 0.2, ConnsPerReplica: 1,
		BaseRSS: 100, RSSPerQueued: 1, WorkCV: detCV,
	})
	for i := 0; i < 10; i++ {
		c.Submit(Seq("a", 1.0), nil)
	}
	eng.Run(0.5)
	s := readStats(c)
	if s[0].RSS <= 100 {
		t.Fatalf("RSS = %v, should exceed base with queued requests", s[0].RSS)
	}
	if s[0].QueueLen != 9 {
		t.Fatalf("queue length = %v, want 9", s[0].QueueLen)
	}
}

func TestCacheWarming(t *testing.T) {
	eng, c := mkCluster(t, TierConfig{
		Name: "db", InitCPU: 4, CacheBase: 10, CacheMax: 100, CacheTau: 10, WorkCV: detCV,
	})
	before := readStats(c)[0].Cache
	for i := 0; i < 50; i++ {
		c.Submit(Seq("db", 0.001), nil)
	}
	eng.Run(5)
	after := readStats(c)[0].Cache
	if !(before < after && after <= 100) {
		t.Fatalf("cache should warm toward max: before=%v after=%v", before, after)
	}
}

func TestWriteDrivenRSS(t *testing.T) {
	eng, c := mkCluster(t, TierConfig{
		Name: "redis", InitCPU: 4, BaseRSS: 50,
		RSSPerWrite: 0.001, RSSWriteCap: 200, WorkCV: detCV,
	})
	for i := 0; i < 100; i++ {
		c.Submit(&Stage{Tier: "redis", Work: 0.001, WriteBytes: 1000}, nil)
	}
	eng.Run(5)
	s := readStats(c)
	if s[0].RSS < 50+99 {
		t.Fatalf("write-driven RSS = %v, want >= 149", s[0].RSS)
	}
}

func TestSubmitUnknownTierPanics(t *testing.T) {
	_, c := mkCluster(t, TierConfig{Name: "a"})
	defer func() {
		if recover() == nil {
			t.Fatal("submitting to unknown tier should panic")
		}
	}()
	c.Submit(Seq("nope", 1), nil)
}

func TestDuplicateTierPanics(t *testing.T) {
	eng := &sim.Engine{}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate tier names should panic")
		}
	}()
	New(eng, sim.NewRNG(1), []TierConfig{{Name: "a"}, {Name: "a"}})
}

// Property: CPU consumed in any interval never exceeds limit × duration, and
// every submitted request eventually completes exactly once.
func TestCPUConservationProperty(t *testing.T) {
	f := func(seed int64, nreq uint8, limitTenths uint8) bool {
		limit := 0.2 + float64(limitTenths%40)/10
		eng := &sim.Engine{}
		c := New(eng, sim.NewRNG(seed), []TierConfig{
			{Name: "a", InitCPU: limit, MinCPU: 0.2, MaxCPU: 8, ConnsPerReplica: 8},
		})
		n := int(nreq%30) + 1
		completions := 0
		for i := 0; i < n; i++ {
			c.Submit(Seq("a", 0.05), func(l float64, d bool) { completions++ })
		}
		eng.Run(1.0)
		used := readStats(c)[0].CPUUsage // cores over 1s
		if used > limit+1e-9 {
			return false
		}
		eng.Run(1000)
		return completions == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: latencies are never negative and scale down (weakly) when the
// CPU limit scales up, for a fixed arrival pattern.
func TestMoreCPUNeverHurtsProperty(t *testing.T) {
	run := func(limit float64) float64 {
		eng := &sim.Engine{}
		c := New(eng, sim.NewRNG(7), []TierConfig{
			{Name: "a", InitCPU: limit, MinCPU: 0.2, MaxCPU: 16, WorkCV: detCV},
		})
		total := 0.0
		nDone := 0
		for i := 0; i < 20; i++ {
			at := float64(i) * 0.01
			eng.At(at, func() {
				c.Submit(Seq("a", 0.05), func(l float64, d bool) { total += l; nDone++ })
			})
		}
		eng.Run(1000)
		if nDone != 20 {
			t.Fatalf("only %d of 20 completed", nDone)
		}
		return total
	}
	prev := math.Inf(1)
	for _, lim := range []float64{0.5, 1, 2, 4} {
		tot := run(lim)
		if tot < 0 {
			t.Fatal("negative latency")
		}
		if tot > prev+1e-6 {
			t.Fatalf("latency increased with more CPU: limit %v total %v > %v", lim, tot, prev)
		}
		prev = tot
	}
}
