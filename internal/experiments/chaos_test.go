package experiments

import (
	"testing"

	"sinan/internal/apps"
	"sinan/internal/core"
	"sinan/internal/faults"
	"sinan/internal/harness"
	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// cheapPredictor is a deterministic stand-in for the trained hybrid:
// predicts safety whenever the candidate's total allocation clears
// needCores. Lets chaos runs execute in milliseconds instead of training a
// model.
type cheapPredictor struct {
	d         nn.Dims
	qos       float64
	needCores float64
}

func (f *cheapPredictor) Meta() core.ModelMeta {
	return core.ModelMeta{D: f.d, QoSMS: f.qos, RMSEValid: 10, Pd: 0.25, Pu: 0.5}
}

func (f *cheapPredictor) PredictBatch(_ *core.PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	b := in.Batch()
	pred := tensor.New(b, f.d.M)
	pv := make([]float64, b)
	for i := 0; i < b; i++ {
		totalC := 0.0
		for _, v := range in.RC.Data[i*f.d.N : (i+1)*f.d.N] {
			totalC += v
		}
		lat := 20.0
		pv[i] = 0.01
		if totalC < f.needCores {
			lat = f.qos * 2
			pv[i] = 0.95
		}
		for m := 0; m < f.d.M; m++ {
			pred.Set(lat, i, m)
		}
	}
	return pred, pv, nil
}

func chaosTestOutcomes(t *testing.T, workers int) []harness.Outcome {
	t.Helper()
	app := apps.NewHotelReservation()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	model := &cheapPredictor{d: d, qos: app.QoSMS, needCores: 8}
	specs := chaosSpecs(app, model, "hotel", 1000, 120, 20, 99)
	return harness.Run(
		harness.Suite{Name: "chaos-test", BaseSeed: 99, Specs: specs},
		harness.Options{Workers: workers},
	)
}

// The headline acceptance test: a managed run whose predictor dies mid-run
// completes without panicking, switches to degraded mode, recovers when
// the outage lifts, and records the degraded intervals in its trace —
// while the no-fallback variant latches dead on the first error.
func TestChaosFallbackDegradesAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	outs := chaosTestOutcomes(t, 1)
	if len(outs) != 5 {
		t.Fatalf("chaos outcomes = %d, want 5", len(outs))
	}
	byName := map[string]harness.Outcome{}
	for _, o := range outs {
		byName[o.Spec.Name] = o
	}

	fb := byName["hotel/sinan-fallback"]
	s, ok := schedulerOf(fb.Policy)
	if !ok {
		t.Fatal("fallback policy is not a Sinan scheduler")
	}
	if s.PredictErrors() == 0 {
		t.Fatal("fault schedule never reached the predictor")
	}
	if s.DegradedIntervals() == 0 || s.Recoveries() == 0 {
		t.Fatalf("fallback never cycled degraded→recovered: degraded=%d recoveries=%d",
			s.DegradedIntervals(), s.Recoveries())
	}
	degraded := 0
	lastDegraded := -1
	for i, row := range fb.Result.Trace {
		if row.Degraded {
			degraded++
			lastDegraded = i
		}
	}
	if degraded == 0 {
		t.Fatal("trace records no degraded intervals")
	}
	if lastDegraded == len(fb.Result.Trace)-1 {
		t.Fatal("run ended still degraded; expected recovery before the end")
	}

	// The crashing variant dies on its first predictor error and decides
	// nothing afterwards.
	cr := byName["hotel/sinan-crashing"]
	lp, ok := cr.Policy.(*latchingPolicy)
	if !ok || !lp.dead {
		t.Fatalf("crashing variant should have latched dead (ok=%v)", ok)
	}
	for _, row := range cr.Result.Trace {
		if row.Degraded {
			t.Fatal("a dead manager cannot report degraded decisions")
		}
	}

	// The lossy-stats arm loses and duplicates reports on the wire while
	// the predictor stays healthy: the run must complete with the plane's
	// loss surfacing in the injector counters, not as predictor errors.
	ls := byName["hotel/sinan-lossy-stats"]
	lsInj, ok := ls.Spec.Faults.(*faults.Injector)
	if !ok {
		t.Fatal("lossy arm has no injector")
	}
	if c := lsInj.Counters(); c.DroppedReports == 0 || c.DupedReports == 0 {
		t.Fatalf("lossy plane never dropped/duplicated: %+v", c)
	}
	if sLS, _ := schedulerOf(ls.Policy); sLS.PredictErrors() != 0 {
		t.Fatalf("lossy-stats arm saw %d predictor errors, want 0", sLS.PredictErrors())
	}
	if len(ls.Result.Trace) == 0 || ls.Result.Completed == 0 {
		t.Fatal("lossy-stats run did not complete")
	}

	// The no-fault reference never degrades.
	nf := byName["hotel/sinan-nofault"]
	for _, row := range nf.Result.Trace {
		if row.Degraded {
			t.Fatal("no-fault run should stay model-driven")
		}
	}
	if sNF, _ := schedulerOf(nf.Policy); sNF.PredictErrors() != 0 {
		t.Fatalf("no-fault run saw %d predictor errors", sNF.PredictErrors())
	}
	pinTable(t, outs, chaosRow, 0x7ad222d67d24fe24)
}

// Chaos runs must stay bit-identical regardless of harness worker count:
// all fault state lives on each run's private sim clock and RNGs.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	a := chaosTestOutcomes(t, 1)
	b := chaosTestOutcomes(t, 4)
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
			if x.P99MS != y.P99MS || x.Total != y.Total || x.Degraded != y.Degraded {
				t.Fatalf("spec %s trace diverges at interval %d: %+v vs %+v",
					a[i].Spec.Name, j, x, y)
			}
		}
	}
}
