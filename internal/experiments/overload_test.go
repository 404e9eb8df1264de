package experiments

import (
	"testing"
	"time"

	"sinan/internal/apps"
	"sinan/internal/core"
	"sinan/internal/harness"
	"sinan/internal/nn"
	"sinan/internal/predsvc"
)

func overloadTestOutcomes(t *testing.T, workers int) []harness.Outcome {
	t.Helper()
	app := apps.NewHotelReservation()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	model := &cheapPredictor{d: d, qos: app.QoSMS, needCores: 8}
	specs := overloadSchedulerSpecs(app, model, "hotel", 1000, 120, 20, 99)
	return harness.Run(
		harness.Suite{Name: "overload-test", BaseSeed: 99, Specs: specs},
		harness.Options{Workers: workers},
	)
}

func TestOverloadRegistered(t *testing.T) {
	if _, ok := Find("overload"); !ok {
		t.Fatal("overload experiment missing from the registry")
	}
}

// The scheduler-side acceptance story: under predictor saturation the
// brownout variant climbs the ladder (trace-visible), keeps deciding every
// interval, and recovers to full enumeration by the end; the rigid variant
// gets shed wholesale and rides its degraded fallback instead.
func TestOverloadBrownoutLadderEngages(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	outs := overloadTestOutcomes(t, 1)
	if len(outs) != 3 {
		t.Fatalf("overload outcomes = %d, want 3", len(outs))
	}
	byName := map[string]harness.Outcome{}
	for _, o := range outs {
		byName[o.Spec.Name] = o
	}
	brown, _ := schedulerOf(byName["hotel/sinan-brownout"].Policy)
	rigid, _ := schedulerOf(byName["hotel/sinan-rigid"].Policy)
	nofault, _ := schedulerOf(byName["hotel/sinan-nofault"].Policy)
	if brown == nil || rigid == nil || nofault == nil {
		t.Fatal("overload policies are not Sinan schedulers")
	}

	// The fault schedule reached the prediction path and the ladder answered.
	if brown.PredictSheds() == 0 || brown.BrownoutIntervals() == 0 {
		t.Fatalf("ladder never engaged: sheds=%d brownout intervals=%d",
			brown.PredictSheds(), brown.BrownoutIntervals())
	}
	bt := byName["hotel/sinan-brownout"].Result.Trace
	maxLevel := 0
	for _, row := range bt {
		if row.Brownout > maxLevel {
			maxLevel = row.Brownout
		}
	}
	if maxLevel < core.BrownoutHold {
		t.Fatalf("severe window should push the ladder to hold-only, peaked at %d", maxLevel)
	}
	if last := bt[len(bt)-1].Brownout; last != core.BrownoutNone {
		t.Fatalf("run ended still browned out at level %d", last)
	}

	// Nobody skips an interval: overload costs decision quality, never
	// decision cadence.
	rt := byName["hotel/sinan-rigid"].Result.Trace
	nt := byName["hotel/sinan-nofault"].Result.Trace
	if len(bt) == 0 || len(bt) != len(rt) || len(bt) != len(nt) {
		t.Fatalf("trace lengths diverge: brownout=%d rigid=%d nofault=%d",
			len(bt), len(rt), len(nt))
	}

	// The rigid baseline keeps full batches: no brownout anywhere, far more
	// sheds, and more intervals spent on the blind fallback.
	if rigid.BrownoutIntervals() != 0 {
		t.Fatalf("rigid variant browned out %d intervals", rigid.BrownoutIntervals())
	}
	for i, row := range rt {
		if row.Brownout != core.BrownoutNone {
			t.Fatalf("rigid trace records brownout level %d at interval %d", row.Brownout, i)
		}
	}
	if rigid.PredictSheds() <= brown.PredictSheds() {
		t.Fatalf("full batches should be shed more often: rigid=%d brownout=%d",
			rigid.PredictSheds(), brown.PredictSheds())
	}
	if rigid.DegradedIntervals() <= brown.DegradedIntervals() {
		t.Fatalf("brownout should cut time on the blind fallback: rigid=%d brownout=%d",
			rigid.DegradedIntervals(), brown.DegradedIntervals())
	}

	// The no-fault anchor stays clean.
	if nofault.PredictErrors() != 0 || nofault.BrownoutIntervals() != 0 {
		t.Fatalf("no-fault run saw errors=%d brownout=%d",
			nofault.PredictErrors(), nofault.BrownoutIntervals())
	}
	pinTable(t, outs, overloadRow, 0x19ff3bed1064ebc1)
}

// Overload runs must stay bit-identical regardless of harness worker count —
// including the brownout level sequence, which depends on the injector's
// per-run RNG and clock.
func TestOverloadDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	a := overloadTestOutcomes(t, 1)
	b := overloadTestOutcomes(t, 4)
	for i := range a {
		ra, rb := a[i].Result, b[i].Result
		if ra.Completed != rb.Completed || ra.Dropped != rb.Dropped {
			t.Fatalf("spec %s diverges: %d/%d vs %d/%d completed/dropped",
				a[i].Spec.Name, ra.Completed, ra.Dropped, rb.Completed, rb.Dropped)
		}
		if len(ra.Trace) != len(rb.Trace) {
			t.Fatalf("spec %s trace lengths differ", a[i].Spec.Name)
		}
		for j := range ra.Trace {
			x, y := ra.Trace[j], rb.Trace[j]
			if x.P99MS != y.P99MS || x.Total != y.Total ||
				x.Degraded != y.Degraded || x.Brownout != y.Brownout {
				t.Fatalf("spec %s trace diverges at interval %d: %+v vs %+v",
					a[i].Spec.Name, j, x, y)
			}
		}
	}
}

// The serving-side acceptance story, scaled down for CI: at 4× measured
// capacity the admission gate sheds or expires the excess while the
// unprotected server accepts everything and lets in-flight work pile up.
// Wall-clock by nature, so assertions are directional, not exact.
func TestServingOverloadProtection(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock serving run")
	}
	m := servingModel()
	args := servingArgs(m.D, 64)
	conc := 1
	probe := predsvc.NewServiceWith(m, predsvc.ServiceOptions{MaxConcurrent: conc})
	perCall := measurePredictMS(probe, args)
	capacity := float64(conc) / (perCall / 1000)
	rate := 4 * capacity
	dur := 400 * time.Millisecond
	if maxReqs := 2000.0; rate*dur.Seconds() > maxReqs {
		rate = maxReqs / dur.Seconds()
	}
	deadline := 4 * perCall
	if deadline < 20 {
		deadline = 20
	}

	prot := predsvc.NewServiceWith(m, predsvc.ServiceOptions{MaxConcurrent: conc})
	po := driveOpenLoop(prot, args, rate, dur, deadline)
	unprot := predsvc.NewServiceWith(m, predsvc.ServiceOptions{MaxConcurrent: -1})
	uo := driveOpenLoop(unprot, args, rate, dur, deadline)

	if po.ok == 0 {
		t.Fatal("protected server served nothing")
	}
	if po.shed+po.expired == 0 {
		t.Fatalf("protected server at 4x capacity dropped nothing: %+v", po)
	}
	if uo.shed+uo.expired != 0 {
		t.Fatalf("unprotected server has no gate to drop with: %+v", uo)
	}
	if uo.maxActive <= po.maxActive {
		t.Fatalf("unprotected backlog should exceed the gated one: %d vs %d in flight",
			uo.maxActive, po.maxActive)
	}
}
