package faults

import (
	"errors"
	"reflect"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/core"
	"sinan/internal/nn"
	"sinan/internal/sim"
	"sinan/internal/statplane"
	"sinan/internal/telemetry"
	"sinan/internal/tensor"
)

// attached returns an injector for plan and the registry its counters land on.
func attached(plan Plan) (*Injector, *telemetry.Registry) {
	inj, reg := New(plan), telemetry.NewRegistry()
	inj.AttachMetrics(reg)
	return inj, reg
}

// okPredictor is a trivially-healthy base model for wrapper tests.
type okPredictor struct{ calls int }

func (p *okPredictor) Meta() core.ModelMeta { return core.ModelMeta{QoSMS: 200} }

func (p *okPredictor) PredictShared(_ *core.PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	p.calls++
	return tensor.New(1, 1), []float64{0}, nil
}

func testCluster() (*sim.Engine, *cluster.Cluster) {
	eng := &sim.Engine{}
	app := apps.NewHotelReservation()
	return eng, cluster.New(eng, sim.NewRNG(1), app.Tiers)
}

func TestStandardPlanDeterministicAndBounded(t *testing.T) {
	a := Standard(7, 600, 5)
	b := Standard(7, 600, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%+v\n%+v", a, b)
	}
	c := Standard(8, 600, 5)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds should move the windows")
	}
	if len(a.Events) != 5 {
		t.Fatalf("standard plan has %d events, want 5", len(a.Events))
	}
	kinds := map[Kind]bool{}
	for _, e := range a.Events {
		kinds[e.Kind] = true
		if e.Start < 0 || e.End > 600 || e.End <= e.Start {
			t.Fatalf("window out of bounds: %+v", e)
		}
		if (e.Kind == MetricDropout || e.Kind == ReplicaCrash) && (e.Tier < 0 || e.Tier >= 5) {
			t.Fatalf("tier out of range: %+v", e)
		}
	}
	for _, k := range []Kind{PredictorOutage, PredictorSlow, MetricDropout, ReplicaCrash, RPCBlips} {
		if !kinds[k] {
			t.Fatalf("standard plan missing %v", k)
		}
	}
}

func TestPredictorOutageWindow(t *testing.T) {
	eng, cl := testCluster()
	inj, reg := attached(Plan{Seed: 1, Events: []Event{
		{Kind: PredictorOutage, Start: 10, End: 20},
	}})
	inj.Bind(eng, cl)
	base := &okPredictor{}
	p := inj.Predictor(base)

	eng.Run(5)
	if _, _, err := p.PredictShared(nil, batchInputs(1)); err != nil {
		t.Fatalf("before outage: %v", err)
	}
	eng.Run(15)
	if _, _, err := p.PredictShared(nil, batchInputs(1)); !errors.Is(err, ErrOutage) {
		t.Fatalf("during outage want ErrOutage, got %v", err)
	}
	eng.Run(25)
	if _, _, err := p.PredictShared(nil, batchInputs(1)); err != nil {
		t.Fatalf("after outage: %v", err)
	}
	if base.calls != 2 {
		t.Fatalf("base reached %d times, want 2 (outage short-circuits)", base.calls)
	}
	if n := reg.Snapshot().Counters; n["faults.predictor.errors"] != 1 {
		t.Fatalf("counters: %v", n)
	}
}

func TestPredictorSlowdownVsDeadline(t *testing.T) {
	eng, cl := testCluster()
	inj, reg := attached(Plan{Seed: 1, Events: []Event{
		{Kind: PredictorSlow, Start: 10, End: 20, Value: 2.0},  // past deadline
		{Kind: PredictorSlow, Start: 30, End: 40, Value: 0.25}, // under it
	}})
	inj.Bind(eng, cl)
	p := inj.Predictor(&okPredictor{})

	eng.Run(15)
	if _, _, err := p.PredictShared(nil, batchInputs(1)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("2s added latency vs 1s deadline should time out, got %v", err)
	}
	eng.Run(35)
	if _, _, err := p.PredictShared(nil, batchInputs(1)); err != nil {
		t.Fatalf("sub-deadline slowdown should still answer: %v", err)
	}
	n := reg.Snapshot().Counters
	if n["faults.predictor.errors"] != 1 || n["faults.predictor.slow_calls"] != 1 {
		t.Fatalf("counters: %v", n)
	}
}

// report builds a single-tier node-agent report for gate tests.
func report(agent string, seq uint64, tier int) statplane.Report {
	return statplane.Report{
		Agent: agent, Seq: seq,
		Tiers: []statplane.TierStats{{Tier: tier, Stats: cluster.Stats{CPUUsage: 1}}},
	}
}

func TestMetricDropoutDropsReports(t *testing.T) {
	eng, cl := testCluster()
	inj, reg := attached(Plan{Seed: 1, Events: []Event{
		{Kind: MetricDropout, Start: 10, End: 20, Tier: 2},
	}})
	inj.Bind(eng, cl)

	eng.Run(5)
	if v := inj.DeliverReport(report("node-2", 1, 2)); v != statplane.Deliver {
		t.Fatalf("no dropout active, verdict = %v, want Deliver", v)
	}
	eng.Run(15)
	if v := inj.DeliverReport(report("node-2", 2, 2)); v != statplane.Drop {
		t.Fatalf("tier 2's report should be dropped in the window, got %v", v)
	}
	if v := inj.DeliverReport(report("node-0", 2, 0)); v != statplane.Deliver {
		t.Fatalf("healthy tier's report must pass, got %v", v)
	}
	eng.Run(25)
	if v := inj.DeliverReport(report("node-2", 3, 2)); v != statplane.Deliver {
		t.Fatalf("dropout over, verdict = %v, want Deliver", v)
	}
	if n := reg.Snapshot().Counters; n["faults.reports.dropped"] != 1 {
		t.Fatalf("counters: %v", n)
	}
}

// A LossyReports window must drop and duplicate with roughly the right
// rates, reproducibly under the same seed, without touching the predictor
// blip RNG.
func TestLossyReportsWindowDeterministic(t *testing.T) {
	run := func() (drops, dups int) {
		eng, cl := testCluster()
		inj := New(Lossy(42, 100, 0.3))
		inj.Bind(eng, cl)
		eng.Run(50) // inside the [20, 80] window
		for i := 0; i < 500; i++ {
			switch inj.DeliverReport(report("node-0", uint64(i+1), 0)) {
			case statplane.Drop:
				drops++
			case statplane.Duplicate:
				dups++
			}
		}
		return
	}
	d1, p1 := run()
	d2, p2 := run()
	if d1 != d2 || p1 != p2 {
		t.Fatalf("lossy window not reproducible: %d/%d vs %d/%d", d1, p1, d2, p2)
	}
	if d1 < 100 || d1 > 200 {
		t.Fatalf("drop rate implausible for p=0.3: %d/500", d1)
	}
	// Duplicates apply to survivors: expect ≈ 500·0.7·0.3 = 105.
	if p1 < 50 || p1 > 160 {
		t.Fatalf("dup rate implausible: %d/500", p1)
	}
	eng, cl := testCluster()
	inj := New(Lossy(42, 100, 0.3))
	inj.Bind(eng, cl)
	eng.Run(5) // before the window
	if v := inj.DeliverReport(report("node-0", 1, 0)); v != statplane.Deliver {
		t.Fatalf("outside the window reports must pass, got %v", v)
	}
}

func TestReplicaCrashWindowDrivesAliveFraction(t *testing.T) {
	eng, cl := testCluster()
	inj, reg := attached(Plan{Seed: 1, Events: []Event{
		{Kind: ReplicaCrash, Start: 10, End: 20, Tier: 1, Value: 0.5},
	}})
	inj.Bind(eng, cl)
	tier := cl.Tiers()[1]

	eng.Run(5)
	if tier.AliveFraction() != 1 {
		t.Fatal("tier should start healthy")
	}
	eng.Run(15)
	if tier.AliveFraction() != 0.5 {
		t.Fatalf("alive = %v during crash window, want 0.5", tier.AliveFraction())
	}
	eng.Run(25)
	if tier.AliveFraction() != 1 {
		t.Fatalf("alive = %v after restart, want 1", tier.AliveFraction())
	}
	if n := reg.Snapshot().Counters; n["faults.crash.windows"] != 1 {
		t.Fatalf("counters: %v", n)
	}
}

func TestRPCBlipsFailSomeCallsDeterministically(t *testing.T) {
	run := func() (fails int) {
		eng, cl := testCluster()
		inj := New(Plan{Seed: 42, Events: []Event{
			{Kind: RPCBlips, Start: 0, End: 100, Value: 0.5},
		}})
		inj.Bind(eng, cl)
		p := inj.Predictor(&okPredictor{})
		eng.Run(1)
		for i := 0; i < 200; i++ {
			if _, _, err := p.PredictShared(nil, batchInputs(1)); err != nil {
				if !errors.Is(err, ErrBlip) {
					t.Fatalf("unexpected error kind: %v", err)
				}
				fails++
			}
		}
		return fails
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("blips not reproducible: %d vs %d", a, b)
	}
	if a < 60 || a > 140 {
		t.Fatalf("blip rate implausible for p=0.5: %d/200", a)
	}
}
