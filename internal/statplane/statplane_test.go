package statplane

import (
	"reflect"
	"testing"
	"time"

	"sinan/internal/cluster"
	"sinan/internal/metrics"
	"sinan/internal/telemetry"
)

// fixedSampler returns deterministic per-tier stats: tier i's CPUUsage is
// i+1 plus a per-call epoch bump, so tests can tell samples apart.
type fixedSampler struct {
	epoch float64
	calls int
}

func (f *fixedSampler) SampleTier(tier int) cluster.Stats {
	f.calls++
	return cluster.Stats{CPUUsage: float64(tier+1) + f.epoch, CPULimit: 8}
}

// fixedGateway replays a constant window: 100 submitted per flush.
type fixedGateway struct {
	submitted int64
	p99       float64
}

func (g *fixedGateway) Submitted() int64 { g.submitted += 100; return g.submitted }

func (g *fixedGateway) FlushWindow() metrics.Percentiles {
	var p metrics.Percentiles
	p.Values[metrics.NumPercentiles-1] = g.p99
	p.Count = 100
	return p
}

func report(agent string, seq uint64, interval int64, tier int, cpu float64) Report {
	return Report{
		Version: WireVersion, Agent: agent, Seq: seq, Interval: interval,
		Tiers: []TierStats{{Tier: tier, Stats: cluster.Stats{CPUUsage: cpu}}},
	}
}

func TestPartitionTiers(t *testing.T) {
	cases := []struct {
		n, per int
		want   [][]int
	}{
		{3, 1, [][]int{{0}, {1}, {2}}},
		{5, 2, [][]int{{0, 1}, {2, 3}, {4}}},
		{4, 0, [][]int{{0}, {1}, {2}, {3}}}, // per<1 clamps to 1
		{2, 5, [][]int{{0, 1}}},
		{0, 1, nil},
	}
	for _, c := range cases {
		if got := PartitionTiers(c.n, c.per); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("PartitionTiers(%d,%d) = %v, want %v", c.n, c.per, got, c.want)
		}
	}
}

// The aggregator's central contract: duplicates and stale sequence numbers
// are dropped, reports for closed intervals are late, unknown agents and
// foreign versions are rejected — and none of those corrupt the snapshot.
func TestAggregatorSequenceDedupeLateAndRejects(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := NewAggregator(AggregatorOptions{NumTiers: 2})
	a.AttachMetrics(reg)
	a.RegisterAgent("node-0")
	a.RegisterAgent("node-1")

	a.BeginInterval(0)
	a.OfferReport(report("node-0", 1, 0, 0, 10))
	a.OfferReport(report("node-0", 1, 0, 0, 99)) // duplicate seq: dropped
	a.OfferReport(report("intruder", 1, 0, 0, 99))
	bad := report("node-1", 1, 0, 1, 99)
	bad.Version = WireVersion + 1
	a.OfferReport(bad) // wrong version: rejected, seq not consumed
	a.OfferReport(report("node-1", 1, 0, 1, 20))
	st := a.Assemble(0, 1.0)

	if st.StatsOK != nil {
		t.Fatalf("complete interval should have nil StatsOK, got %v", st.StatsOK)
	}
	if st.Stats[0].CPUUsage != 10 || st.Stats[1].CPUUsage != 20 {
		t.Fatalf("duplicate or rejected report overwrote stats: %+v", st.Stats)
	}
	if v := reg.Counter("plane.reports.duplicate").Value(); v != 1 {
		t.Fatalf("duplicate counter = %d, want 1", v)
	}
	if v := reg.Counter("plane.reports.rejected").Value(); v != 2 {
		t.Fatalf("rejected counter = %d, want 2 (unknown agent + version)", v)
	}

	// A report for interval 0 arriving after interval 1 opened is late.
	a.BeginInterval(1)
	a.OfferReport(report("node-0", 2, 0, 0, 30))
	a.OfferReport(report("node-1", 2, 1, 1, 40))
	st = a.Assemble(1, 2.0)
	if v := reg.Counter("plane.reports.late").Value(); v != 1 {
		t.Fatalf("late counter = %d, want 1", v)
	}
	if st.StatsOK == nil || st.StatsOK[0] || !st.StatsOK[1] {
		t.Fatalf("late report must leave its tier missing: StatsOK=%v", st.StatsOK)
	}
	if st.Stats[0].CPUUsage != 0 {
		t.Fatalf("missing tier's row must stay zeroed, got %+v", st.Stats[0])
	}
	if v := reg.Counter("plane.tiers.missing").Value(); v != 1 {
		t.Fatalf("tiers.missing = %d, want 1", v)
	}
	if v := reg.Counter("plane.intervals.incomplete").Value(); v != 1 {
		t.Fatalf("intervals.incomplete = %d, want 1", v)
	}
}

// Missing gateway reports degrade gracefully: RPS holds the last observed
// value, the latency summary stays zero, and GatewayOK flags the gap.
func TestAggregatorGatewayMissingHoldsLastRPS(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := NewAggregator(AggregatorOptions{NumTiers: 1})
	a.AttachMetrics(reg)
	a.RegisterAgent("node-0")
	a.ExpectGateway()

	a.BeginInterval(0)
	a.OfferReport(report("node-0", 1, 0, 0, 1))
	var perc metrics.Percentiles
	perc.Values[metrics.NumPercentiles-1] = 42
	a.OfferGatewayReport(GatewayReport{
		Version: WireVersion, Gateway: "gw", Seq: 1, Interval: 0, RPS: 500, Perc: perc,
	})
	st := a.Assemble(0, 1.0)
	if !st.GatewayOK || st.RPS != 500 || st.Perc.P99() != 42 {
		t.Fatalf("gateway interval: %+v", st)
	}

	a.BeginInterval(1)
	a.OfferReport(report("node-0", 2, 1, 0, 1))
	st = a.Assemble(1, 2.0)
	if st.GatewayOK {
		t.Fatal("no gateway report arrived; GatewayOK must be false")
	}
	if st.RPS != 500 {
		t.Fatalf("RPS should hold last value 500, got %v", st.RPS)
	}
	if st.Perc.P99() != 0 || st.Perc.Count != 0 {
		t.Fatalf("latency summary must stay zero when the gateway is silent: %+v", st.Perc)
	}
	if v := reg.Counter("plane.gateway.missing").Value(); v != 1 {
		t.Fatalf("gateway.missing = %d, want 1", v)
	}
}

// Per-agent staleness counts consecutive silent intervals and resets on the
// next accepted report; the live gauge tracks who reported this interval.
func TestAggregatorLivenessAndStalenessGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := NewAggregator(AggregatorOptions{NumTiers: 2})
	a.AttachMetrics(reg)
	a.RegisterAgent("node-0")
	a.RegisterAgent("node-1")
	stale0 := reg.Gauge("plane.agent.stale", "agent", "node-0")
	stale1 := reg.Gauge("plane.agent.stale", "agent", "node-1")
	live := reg.Gauge("plane.agents.live")

	seq := uint64(0)
	run := func(interval int64, reporters ...string) {
		a.BeginInterval(interval)
		seq++
		for _, name := range reporters {
			tier := 0
			if name == "node-1" {
				tier = 1
			}
			a.OfferReport(report(name, seq, interval, tier, 1))
		}
		a.Assemble(interval, float64(interval))
	}

	run(0, "node-0", "node-1")
	if live.Value() != 2 || stale0.Value() != 0 || stale1.Value() != 0 {
		t.Fatalf("healthy interval: live=%v stale=%v/%v", live.Value(), stale0.Value(), stale1.Value())
	}
	run(1, "node-0")
	run(2, "node-0")
	if live.Value() != 1 || stale1.Value() != 2 {
		t.Fatalf("after 2 silent intervals: live=%v stale1=%v", live.Value(), stale1.Value())
	}
	run(3, "node-0", "node-1")
	if live.Value() != 2 || stale1.Value() != 0 {
		t.Fatalf("recovery must reset staleness: live=%v stale1=%v", live.Value(), stale1.Value())
	}
}

// dupGate duplicates every delivery; dropGate drops a chosen tier.
type dupGate struct{}

func (dupGate) DeliverReport(Report) Verdict { return Duplicate }

type dropGate struct{ tier int }

func (g dropGate) DeliverReport(r Report) Verdict {
	for _, ts := range r.Tiers {
		if ts.Tier == g.tier {
			return Drop
		}
	}
	return Deliver
}

// Two identical in-process pipelines must assemble bit-identical interval
// states — the determinism the harness contract leans on — and a
// duplicating gate must change counters, never content.
func TestInProcessPlaneDeterministicAndDupSafe(t *testing.T) {
	build := func(gate ReportGate) (*Pipeline, *telemetry.Registry) {
		reg := telemetry.NewRegistry()
		p := NewInProcess(Config{
			Sampler: &fixedSampler{}, NumTiers: 3,
			Gateway: &fixedGateway{p99: 17}, IntervalSec: 1, Gate: gate,
		})
		p.AttachMetrics(reg)
		return p, reg
	}
	p1, _ := build(nil)
	p2, _ := build(nil)
	p3, reg3 := build(dupGate{})
	for i := int64(0); i < 5; i++ {
		a := p1.Collect(i, float64(i))
		b := p2.Collect(i, float64(i))
		c := p3.Collect(i, float64(i))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("interval %d diverges:\n%+v\n%+v", i, a, b)
		}
		if !reflect.DeepEqual(a, c) {
			t.Fatalf("duplicated delivery changed interval %d content:\n%+v\n%+v", i, a, c)
		}
	}
	if v := reg3.Counter("plane.reports.duplicate").Value(); v != 15 {
		t.Fatalf("dup gate: duplicate counter = %d, want 15 (3 agents × 5 intervals)", v)
	}
}

// A gate that drops one tier's reports must surface as StatsOK=false for
// exactly that tier, with the gateway summary unharmed.
func TestInProcessPlaneDropGate(t *testing.T) {
	p := NewInProcess(Config{
		Sampler: &fixedSampler{}, NumTiers: 3,
		Gateway: &fixedGateway{p99: 9}, IntervalSec: 1, Gate: dropGate{tier: 1},
	})
	st := p.Collect(0, 1.0)
	if st.StatsOK == nil || !st.StatsOK[0] || st.StatsOK[1] || !st.StatsOK[2] {
		t.Fatalf("StatsOK = %v, want only tier 1 missing", st.StatsOK)
	}
	if !st.GatewayOK || st.RPS != 100 {
		t.Fatalf("gateway must not be gated: %+v", st)
	}
}

// One warmed Collect of the in-process plane — every agent's report, the
// gateway's, the assembly — allocates nothing: the aggregator reuses its
// rows, lent to the caller until the next Collect.
func TestInProcessCollectAllocatesNothing(t *testing.T) {
	p := NewInProcess(Config{
		Sampler: &fixedSampler{}, NumTiers: 28,
		Gateway: &fixedGateway{p99: 17}, IntervalSec: 1,
	})
	interval := int64(0)
	collect := func() {
		p.Collect(interval, float64(interval+1))
		interval++
	}
	collect()
	if got := testing.AllocsPerRun(100, collect); got != 0 {
		t.Fatalf("a warmed Collect allocates %.2f objects, want 0", got)
	}
}

// The deadline timer is made by the first wait and Reset by every later
// one. Interval 0 waits and expires. During interval 1's wait the timer's
// callback runs again by hand, as interval 0's would if it lost the race
// with Stop and fired late: it only wakes the waiter, which keeps waiting
// for its own deadline, so interval 1 completes on time with every tier.
func TestAggregatorDeadlineTimerReusedAndLateCallbackHarmless(t *testing.T) {
	a := NewAggregator(AggregatorOptions{NumTiers: 2, Deadline: 30 * time.Millisecond})
	a.RegisterAgent("node-0")
	a.RegisterAgent("node-1")
	a.BeginInterval(0)
	a.OfferReport(report("node-0", 1, 0, 0, 5))
	if st := a.Assemble(0, 1.0); st.StatsOK == nil || st.StatsOK[1] {
		t.Fatalf("interval 0 should expire with tier 1 missing: StatsOK=%v", st.StatsOK)
	}
	timer := a.wake
	if timer == nil {
		t.Fatal("a wait armed no timer")
	}

	// A long deadline, so that only the late callback could end the wait
	// before the last report does.
	a.opts.Deadline = time.Minute
	a.BeginInterval(1)
	a.OfferReport(report("node-0", 2, 1, 0, 5))
	done := make(chan IntervalState)
	go func() { done <- a.Assemble(1, 2.0) }()
	for i := 0; i < 10; i++ {
		a.wakeWaiter()
		time.Sleep(time.Millisecond)
	}
	select {
	case st := <-done:
		t.Fatalf("a late callback ended interval 1's wait: StatsOK=%v", st.StatsOK)
	default:
	}
	a.OfferReport(report("node-1", 2, 1, 1, 6))
	st := <-done
	if st.StatsOK != nil || st.Stats[1].CPUUsage != 6 {
		t.Fatalf("interval 1 should complete with every tier: StatsOK=%v stats=%+v", st.StatsOK, st.Stats)
	}
	if a.wake != timer {
		t.Fatal("the second wait made a new timer instead of resetting the first")
	}
}

// An aggregator with a deadline must give up on a straggler and mark its
// tiers missing instead of blocking the control loop.
func TestAggregatorDeadlineExpires(t *testing.T) {
	a := NewAggregator(AggregatorOptions{NumTiers: 2, Deadline: 30 * time.Millisecond})
	a.RegisterAgent("node-0")
	a.RegisterAgent("node-1")
	a.BeginInterval(0)
	a.OfferReport(report("node-0", 1, 0, 0, 5))
	start := time.Now()
	st := a.Assemble(0, 1.0)
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("Assemble returned in %v; expected it to wait for the deadline", waited)
	}
	if st.StatsOK == nil || !st.StatsOK[0] || st.StatsOK[1] {
		t.Fatalf("StatsOK = %v, want tier 1 missing after deadline", st.StatsOK)
	}

	// With every report in early, Assemble must not wait at all.
	a.BeginInterval(1)
	a.OfferReport(report("node-0", 2, 1, 0, 5))
	a.OfferReport(report("node-1", 2, 1, 1, 5))
	start = time.Now()
	st = a.Assemble(1, 2.0)
	if waited := time.Since(start); waited > 20*time.Millisecond {
		t.Fatalf("complete interval still waited %v", waited)
	}
	if st.StatsOK != nil {
		t.Fatalf("complete interval flagged missing tiers: %v", st.StatsOK)
	}
}
