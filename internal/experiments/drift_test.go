package experiments

import (
	"fmt"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/harness"
	"sinan/internal/lifecycle"
	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// wildPredictor is the poisoned-retrain product: latencies off by orders
// of magnitude. The gate must refuse it; a blind swap installs it.
type wildPredictor struct {
	d   nn.Dims
	qos float64
}

func (w *wildPredictor) Meta() core.ModelMeta {
	return core.ModelMeta{D: w.d, QoSMS: w.qos, RMSEValid: 10, Pd: 0.25, Pu: 0.5}
}

func (w *wildPredictor) PredictShared(_ *core.PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	b := in.Batch()
	pred := tensor.New(b, w.d.M)
	pv := make([]float64, b)
	for i := range pred.Data {
		pred.Data[i] = 1e5
	}
	for i := range pv {
		pv[i] = 0.5
	}
	return pred, pv, nil
}

// sneakyPredictor models the behavioral regression only probation can
// catch: perfect on the pinned holdout (rows carry the holdout sentinel),
// wildly optimistic on live traffic — so it passes the gate and shadow
// scoring, goes live, reclaims the cluster to the bone, and breaches SLO.
type sneakyPredictor struct {
	d   nn.Dims
	qos float64
}

func (s *sneakyPredictor) Meta() core.ModelMeta {
	return core.ModelMeta{D: s.d, QoSMS: s.qos, RMSEValid: 10, Pd: 0.25, Pu: 0.5}
}

func (s *sneakyPredictor) PredictShared(_ *core.PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	b := in.Batch()
	pred := tensor.New(b, s.d.M)
	pv := make([]float64, b)
	row := s.d.F * s.d.N * s.d.T
	for i := 0; i < b; i++ {
		lat, p := 20.0, 0.01
		// Row i's window, the one window at W = 1, carries the holdout
		// sentinel in a gate replay: answer truthfully.
		if in.RH.Data[i%in.Windows()*row] < 0 {
			totalC := 0.0
			for _, v := range in.RC.Data[i*s.d.N : (i+1)*s.d.N] {
				totalC += v
			}
			if totalC < 12 {
				lat, p = s.qos*2, 0.95
			}
		}
		for m := 0; m < s.d.M; m++ {
			pred.Set(lat, i, m)
		}
		pv[i] = p
	}
	return pred, pv, nil
}

// driftTestHoldout pins ground truth for the gate: rows sweep total
// allocation from starved to plentiful with targets following
// cheapPredictor's truth (safe at or above trueNeed cores). Each row's
// first resource-history value is an impossible sentinel (negative
// utilization) so test fakes can tell a holdout replay from live traffic —
// the hole a sneaky candidate needs.
func driftTestHoldout(d nn.Dims, qos, trueNeed float64) *dataset.Dataset {
	ds := dataset.New(d, 5)
	for i := 0; i < 48; i++ {
		total := 2 + float64(i)*0.4
		rh := make([]float64, d.F*d.N*d.T)
		rh[0] = -1
		lh := make([]float64, d.T*d.M)
		rc := make([]float64, d.N)
		for n := range rc {
			rc[n] = total / float64(d.N)
		}
		lat := 20.0
		viol := false
		if total < trueNeed {
			lat, viol = 2*qos, true
		}
		for j := range lh {
			lh[j] = lat
		}
		ylat := make([]float64, d.M)
		for m := range ylat {
			ylat[m] = lat
		}
		ds.Append(rh, lh, rc, ylat, viol)
	}
	return ds
}

// driftTestOutcomes runs the three drift arms with cheap fakes: a stale
// model that believes 4 cores suffice, and a retrain pipeline whose first
// product is wildly poisoned (the gate's job), whose second is sneaky —
// holdout-perfect but live-optimistic (probation's job) — and whose third
// is genuinely adapted.
func driftTestOutcomes(t *testing.T, workers int) []harness.Outcome {
	t.Helper()
	app := apps.NewHotelReservation()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	qos := app.QoSMS
	genuine := &cheapPredictor{d: d, qos: qos, needCores: 16}
	poisoned := &wildPredictor{d: d, qos: qos}
	sneaky := &sneakyPredictor{d: d, qos: qos}
	cfg := lifecycle.Config{
		Gate: lifecycle.GateConfig{Holdout: driftTestHoldout(d, qos, 12)},
		Retrain: func(live core.Predictor, fresh *dataset.Dataset, attempt int) (core.Predictor, error) {
			switch attempt {
			case 1:
				return poisoned, nil
			case 2:
				return sneaky, nil
			}
			return genuine, nil
		},
		MinSamples: 15,
	}
	specs := driftSpecs(app, func() core.Predictor {
		return &cheapPredictor{d: d, qos: qos, needCores: 4}
	}, cfg, "hotel", 1000, 300, 20, 31)
	return harness.Run(
		harness.Suite{Name: "drift-test", BaseSeed: 31, Specs: specs},
		harness.Options{Workers: workers},
	)
}

func TestDriftRegistered(t *testing.T) {
	if _, ok := Find("drift"); !ok {
		t.Fatal("drift experiment missing from the registry")
	}
}

// The acceptance story of the drift experiment: the gate rejects the
// poisoned retrain while the live model keeps serving, the sneaky
// candidate that slips past gate and shadow is auto-rolled-back when it
// breaches SLO under probation, the genuine candidate promotes after
// shadow scoring and sticks, the blind arm installs the poisoned model
// unconditionally, and no arm ever loses its predictor — with rows
// bit-identical across harness worker counts.
func TestDriftGateProtectsBlindSwapDoesNot(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	t.Parallel()
	outs := driftTestOutcomes(t, 1)
	if len(outs) != 3 {
		t.Fatalf("drift outcomes = %d, want 3", len(outs))
	}
	byName := map[string]harness.Outcome{}
	for _, o := range outs {
		byName[o.Spec.Name] = o
	}

	gated, ok := byName["hotel/gated-lifecycle"].Policy.(*lifecycle.Manager)
	if !ok {
		t.Fatal("gated arm is not a lifecycle manager")
	}
	if gated.GateRejected() < 1 {
		t.Fatalf("gate never saw the poisoned candidate (accepted=%d rejected=%d)",
			gated.GateAccepted(), gated.GateRejected())
	}
	if gated.Rollbacks() != 1 {
		t.Fatalf("sneaky candidate's probation breach should roll back exactly once (rollbacks=%d)",
			gated.Rollbacks())
	}
	if gated.GateAccepted() < 2 || gated.Promotions() < 2 || gated.Version() < 3 {
		t.Fatalf("genuine candidate never promoted after the rollback (accepted=%d promotions=%d version=%d)",
			gated.GateAccepted(), gated.Promotions(), gated.Version())
	}
	if cp, ok := gated.Live().Current().(*cheapPredictor); !ok || cp.needCores != 16 {
		t.Fatalf("gated arm should end on the genuine candidate, live is %T", gated.Live().Current())
	}

	blind, ok := byName["hotel/blind-swap"].Policy.(*lifecycle.Manager)
	if !ok {
		t.Fatal("blind arm is not a lifecycle manager")
	}
	if blind.GateAccepted() != 0 || blind.GateRejected() != 0 {
		t.Fatalf("blind arm consulted the gate: %d/%d", blind.GateAccepted(), blind.GateRejected())
	}
	if blind.Promotions() < 1 {
		t.Fatalf("blind arm never installed the poisoned model, promotions=%d", blind.Promotions())
	}
	// The poison is self-masking: predicting catastrophe everywhere makes
	// the scheduler over-provision, violations vanish, and the
	// violation-driven drift signal never triggers a corrective retrain —
	// the run ends with the poisoned model still live.
	if _, isWild := blind.Live().Current().(*wildPredictor); !isWild {
		t.Fatalf("blind arm should end stuck on the poisoned model, live is %T", blind.Live().Current())
	}

	// Zero predictor unavailability, every arm, across every swap.
	for name, o := range byName {
		s := tallyOf(o.Result.Trace)
		if !s.sinan {
			t.Fatalf("%s: no scheduler", name)
		}
		if s.predictErrors != 0 {
			t.Fatalf("%s: prediction path errored %d times", name, s.predictErrors)
		}
		for _, row := range o.Result.Trace {
			if row.Degraded {
				t.Fatalf("%s: degraded at t=%.0f — predictor unavailable during lifecycle", name, row.Time)
			}
		}
	}

	// The gate is worth its keep: the blind arm pays for the poisoned
	// model with permanently inflated allocations, the gated arm does not.
	ga := byName["hotel/gated-lifecycle"].Result.Meter.MeanAlloc()
	ba := byName["hotel/blind-swap"].Result.Meter.MeanAlloc()
	if ba <= ga {
		t.Fatalf("poisoned blind swap should over-provision: blind mean %.1f <= gated mean %.1f", ba, ga)
	}

	// Bit-identical rows regardless of worker count.
	outs4 := driftTestOutcomes(t, 4)
	for i := range outs {
		a := fmt.Sprintf("%v|%.6f|%.6f", driftRow(outs[i]),
			outs[i].Result.Meter.MeetProb(), outs[i].Result.Meter.MeanAlloc())
		b := fmt.Sprintf("%v|%.6f|%.6f", driftRow(outs4[i]),
			outs4[i].Result.Meter.MeetProb(), outs4[i].Result.Meter.MeanAlloc())
		if a != b {
			t.Fatalf("run %s not deterministic across workers:\n  %s\n  %s", outs[i].Spec.Name, a, b)
		}
	}
	pinTable(t, outs, driftRow, 0x5884450f3deb220d)
}
