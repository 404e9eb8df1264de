package runner

import (
	"testing"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/dataset"
	"sinan/internal/nn"
	"sinan/internal/sim"
	"sinan/internal/statplane"
	"sinan/internal/workload"
)

// meanTotalAfter returns how many trace rows lie past the warm-up and the
// mean of their aggregate allocations, summed in order as the QoS meter
// sums them.
func meanTotalAfter(trace []TraceRow, warmup float64) (int, float64) {
	n, sum := 0, 0.0
	for _, row := range trace {
		if row.Time > warmup {
			n++
			sum += row.Total
		}
	}
	return n, sum / float64(n)
}

func TestRunStaticMax(t *testing.T) {
	app := apps.NewHotelReservation()
	res := Run(Config{
		App:       app,
		Policy:    &Static{Label: "max"},
		Pattern:   workload.Constant(500),
		Duration:  20,
		Seed:      1,
		Warmup:    5,
		KeepTrace: true,
	})
	if n, mean := meanTotalAfter(res.Trace, 5); n != 15 || res.Meter.MeanAlloc() != mean {
		t.Fatalf("meter mean allocation %v, want %v over the %d intervals after warm-up (15: 20s − 5s)", res.Meter.MeanAlloc(), mean, n)
	}
	if res.Meter.MeetProb() < 0.99 {
		t.Fatalf("static max should meet QoS at moderate load: %v", res.Meter.MeetProb())
	}
	if len(res.Trace) != 20 {
		t.Fatalf("trace rows = %d", len(res.Trace))
	}
	if res.Completed < 5000 {
		t.Fatalf("completed = %d, want ≳ 10000", res.Completed)
	}
	row := res.Trace[10]
	if row.RPS < 400 || row.RPS > 600 {
		t.Fatalf("traced RPS = %v, want ~500", row.RPS)
	}
	if row.Total <= 0 || len(row.Alloc) != len(app.Tiers) {
		t.Fatalf("trace alloc malformed: %+v", row)
	}
}

func TestRunFeedsRecorder(t *testing.T) {
	app := apps.NewHotelReservation()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	ds := dataset.New(d, 5)
	rec := dataset.NewRecorder(ds, app.QoSMS)
	Run(Config{
		App:      app,
		Policy:   &Static{},
		Pattern:  workload.Constant(200),
		Duration: 30,
		Seed:     2,
		Recorder: rec,
	})
	// Samples are created once the T=5 window fills (intervals 5..30) and
	// resolve K=5 intervals later, so intervals 5..25 yield 21 samples.
	if ds.Len() != 21 {
		t.Fatalf("recorded samples = %d, want 21", ds.Len())
	}
}

func TestRunAppliesPolicyAllocation(t *testing.T) {
	app := apps.NewHotelReservation()
	target := make([]float64, len(app.Tiers))
	for i := range target {
		target[i] = 0.5
	}
	res := Run(Config{
		App:       app,
		Policy:    &Static{Target: target, Label: "tiny"},
		Pattern:   workload.Constant(10),
		Duration:  5,
		Seed:      3,
		KeepTrace: true,
	})
	last := res.Trace[len(res.Trace)-1]
	// After the first decision the allocation should be 0.5/tier.
	if last.Alloc[0] != 0.5 {
		t.Fatalf("policy allocation not applied: %v", last.Alloc[0])
	}
}

// fakeInjector implements FaultInjector and statplane.ReportGate without
// importing internal/faults (which depends on core and would cycle back
// here): it drops every report carrying one tier and records that the
// runner bound it and routed deliveries through the gate.
type fakeInjector struct {
	bound bool
	drop  int
	gated int
}

func (f *fakeInjector) Bind(eng *sim.Engine, cl *cluster.Cluster) {
	f.bound = eng != nil && cl != nil
}

func (f *fakeInjector) DeliverReport(r statplane.Report) statplane.Verdict {
	f.gated++
	for _, ts := range r.Tiers {
		if ts.Tier == f.drop {
			return statplane.Drop
		}
	}
	return statplane.Deliver
}

// The runner must bind the injector before the first interval, wire it
// into the stats plane as the report gate (so dropped reports surface as
// zeroed rows with StatsOK=false), and carry a policy's Degraded flag
// into the trace.
func TestRunWiresFaultInjectorAndDegradedFlag(t *testing.T) {
	app := apps.NewHotelReservation()
	inj := &fakeInjector{drop: 1}
	sawMask := 0
	pol := PolicyFunc("probe", func(s State) Decision {
		if s.StatsOK != nil && !s.StatsOK[1] && s.StatsOK[0] {
			sawMask++
		}
		if s.Stats[1] != (cluster.Stats{}) {
			t.Errorf("masked tier stats not zeroed: %+v", s.Stats[1])
		}
		return Decision{Alloc: s.Alloc, Degraded: true}
	})
	res := Run(Config{
		App:       app,
		Policy:    pol,
		Pattern:   workload.Constant(50),
		Duration:  5,
		Seed:      4,
		KeepTrace: true,
		Faults:    inj,
	})
	if !inj.bound {
		t.Fatal("injector was never bound to the run")
	}
	// One report per tier per interval passes through the gate; the policy
	// must see tier 1 flagged missing in every one of the 5 intervals.
	wantGated := 5 * len(app.Tiers)
	if inj.gated != wantGated || sawMask != 5 {
		t.Fatalf("gate calls=%d (want %d), policy saw mask %d times (want 5)",
			inj.gated, wantGated, sawMask)
	}
	for i, row := range res.Trace {
		if !row.Degraded {
			t.Fatalf("trace row %d lost the degraded flag", i)
		}
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	app := apps.NewSocialNetwork()
	run := func() *Result {
		return Run(Config{
			App:       app,
			Policy:    &Static{},
			Pattern:   workload.Constant(100),
			Duration:  10,
			Seed:      7,
			KeepTrace: true,
		})
	}
	a, b := run(), run()
	if a.Completed != b.Completed {
		t.Fatalf("runs diverge: %d vs %d completed", a.Completed, b.Completed)
	}
	for i := range a.Trace {
		if a.Trace[i].P99MS != b.Trace[i].P99MS {
			t.Fatalf("trace diverges at %d", i)
		}
	}
}
