package core

import (
	"math"
	"testing"
	"testing/quick"

	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/tensor"
)

// chaosModel emits adversarial predictions driven by a seed, to probe
// scheduler invariants under arbitrary model behaviour.
type chaosModel struct {
	d    nn.Dims
	qos  float64
	seed uint64
	// garbage is set when the last answer carried a NaN, infinite or
	// negative value (about one answer in four does).
	garbage bool
}

func (f *chaosModel) Meta() ModelMeta {
	return ModelMeta{D: f.d, QoSMS: f.qos, RMSEValid: 25, Pd: 0.2, Pu: 0.4}
}

func (f *chaosModel) next() float64 {
	f.seed = f.seed*6364136223846793005 + 1442695040888963407
	return float64(f.seed>>11) / float64(1<<53)
}

func (f *chaosModel) PredictBatch(_ *PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	b := in.Batch()
	pred := tensor.New(b, f.d.M)
	pv := make([]float64, b)
	for i := 0; i < b; i++ {
		lat := f.next() * f.qos * 2
		for m := 0; m < f.d.M; m++ {
			pred.Set(lat, i, m)
		}
		pv[i] = f.next()
	}
	f.garbage = f.next() < 0.25
	if f.garbage {
		i := int(f.next() * float64(b))
		switch int(f.next() * 4) {
		case 0:
			pred.Set(math.NaN(), i, f.d.M-1)
		case 1:
			pred.Set(math.Inf(1), i, f.d.M-1)
		case 2:
			pv[i] = math.NaN()
		default:
			pv[i] = -pv[i] - 0.1
		}
	}
	return pred, pv, nil
}

// Property: whatever the model says and whatever the observed state, the
// scheduler's decisions stay inside per-tier bounds, on the 0.1-core grid,
// and are finite — and an interval whose model answer carried garbage never
// reclaims.
func TestSchedulerDecisionsAlwaysValidProperty(t *testing.T) {
	app := testApp()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	f := func(seed uint64, steps uint8) bool {
		m := &chaosModel{d: d, qos: 200, seed: seed | 1}
		s := NewScheduler(app, m, SchedulerOptions{})
		alloc := mkAlloc(app, 2)
		for step := 0; step < int(steps%40)+5; step++ {
			p99 := m.next() * 600 // may violate QoS arbitrarily
			usage := m.next()
			m.garbage = false
			dec := s.Decide(stateFor(app, p99, alloc, usage))
			if dec.Alloc == nil {
				return false
			}
			for i, a := range dec.Alloc {
				if m.garbage && a < alloc[i] {
					return false
				}
				if math.IsNaN(a) || math.IsInf(a, 0) {
					return false
				}
				if a < app.Tiers[i].MinCPU-1e-9 || a > app.Tiers[i].MaxCPU+1e-9 {
					return false
				}
				// 0.1-core quantisation.
				if math.Abs(a*10-math.Round(a*10)) > 1e-6 {
					return false
				}
			}
			alloc = dec.Alloc
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the scheduler is deterministic — identical state sequences
// produce identical decision sequences.
func TestSchedulerDeterministicProperty(t *testing.T) {
	app := testApp()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	run := func() [][]float64 {
		m := &fakeModel{d: d, qos: 200, rmse: 10, needCores: 20}
		s := NewScheduler(app, m, SchedulerOptions{})
		alloc := mkAlloc(app, 4)
		var decs [][]float64
		for step := 0; step < 30; step++ {
			p99 := 20.0
			if step%7 == 3 {
				p99 = 230
			}
			dec := s.Decide(stateFor(app, p99, alloc, 0.3))
			alloc = dec.Alloc
			decs = append(decs, append([]float64(nil), alloc...))
		}
		return decs
	}
	a, b := run(), run()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("decision diverged at step %d tier %d", i, j)
			}
		}
	}
}

// Property: once the ultra-safe override is active (all history far below
// QoS), the scheduler makes progress reclaiming even under a paranoid
// violation classifier.
func TestSchedulerUltraSafeOverride(t *testing.T) {
	app := testApp()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	// Model predicting low latency but certain violation for everything.
	m := &paranoidModel{d: d, qos: 200}
	s := NewScheduler(app, m, SchedulerOptions{})
	alloc := mkAlloc(app, 4)
	for i := 0; i < d.T+2; i++ { // fill history with 20ms intervals
		dec := s.Decide(stateFor(app, 20, alloc, 0.2))
		alloc = dec.Alloc
	}
	start := total(alloc)
	for i := 0; i < 20; i++ {
		dec := s.Decide(stateFor(app, 20, alloc, 0.2))
		alloc = dec.Alloc
	}
	if total(alloc) >= start {
		t.Fatalf("ultra-safe override failed to unlock reclaim: %v → %v", start, total(alloc))
	}
}

// paranoidModel predicts tiny latency but pviol = 0.99 for every candidate.
type paranoidModel struct {
	d   nn.Dims
	qos float64
}

func (p *paranoidModel) Meta() ModelMeta {
	return ModelMeta{D: p.d, QoSMS: p.qos, RMSEValid: 10, Pd: 0.2, Pu: 0.4}
}

func (p *paranoidModel) PredictBatch(_ *PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	b := in.Batch()
	pred := tensor.New(b, p.d.M)
	pv := make([]float64, b)
	for i := 0; i < b; i++ {
		for m := 0; m < p.d.M; m++ {
			pred.Set(15, i, m)
		}
		pv[i] = 0.99
	}
	return pred, pv, nil
}

var _ runner.Policy = (*Scheduler)(nil)
