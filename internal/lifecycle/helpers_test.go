package lifecycle

import (
	"math/rand"
	"sync"
	"testing"

	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// holdoutMark is an impossible utilization value planted in the RH features
// of synthetic holdout rows, letting the sneaky fake below tell the pinned
// holdout apart from live traffic.
const holdoutMark = -1.0

// fakeModel is a deterministic core.Predictor stand-in: eval maps the row's
// total allocated cores (and whether the row carries the holdout marker) to
// a predicted p99 and violation probability. Lets lifecycle scenarios run
// in milliseconds instead of training models.
type fakeModel struct {
	d    nn.Dims
	qos  float64
	eval func(total float64, marked bool) (lat, pv float64)
}

func (f *fakeModel) Meta() core.ModelMeta {
	return core.ModelMeta{D: f.d, QoSMS: f.qos, RMSEValid: 10, Pd: 0.25, Pu: 0.5}
}

func (f *fakeModel) PredictShared(_ *core.PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	b := in.Batch()
	pred := tensor.New(b, f.d.M)
	pv := make([]float64, b)
	rowF := f.d.F * f.d.N * f.d.T
	for i := 0; i < b; i++ {
		total := 0.0
		for _, v := range in.RC.Data[i*f.d.N : (i+1)*f.d.N] {
			total += v
		}
		marked := in.RH.Data[i%in.Windows()*rowF] == holdoutMark // row i's window, or the one at W = 1
		lat, p := f.eval(total, marked)
		pv[i] = p
		for m := 0; m < f.d.M; m++ {
			pred.Set(lat, i, m)
		}
	}
	return pred, pv, nil
}

// truthEval predicts the synthetic ground truth: safe at or above need
// cores, violating below.
func truthEval(qos, need float64) func(total float64, marked bool) (float64, float64) {
	return func(total float64, _ bool) (float64, float64) {
		if total >= need {
			return 20, 0.01
		}
		return 2 * qos, 0.95
	}
}

// buildHoldout pins a holdout set matching truthEval(qos, trueNeed): rows
// sweep total allocation from starved to plentiful, targets follow the
// ground truth, and every row carries the holdout marker.
func buildHoldout(d nn.Dims, qos, trueNeed float64) *dataset.Dataset {
	ds := dataset.New(d, 3)
	for i := 0; i < 48; i++ {
		total := 2 + float64(i)*0.4
		rh := make([]float64, d.F*d.N*d.T)
		for j := range rh {
			rh[j] = holdoutMark
		}
		lh := make([]float64, d.T*d.M)
		rc := make([]float64, d.N)
		for n := range rc {
			rc[n] = total / float64(d.N)
		}
		lat, viol := 20.0, false
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

// lcSynthDataset builds a learnable synthetic dataset (p99 rises as total
// allocation falls), for tests that need a genuinely trained hybrid.
func lcSynthDataset(seed int64, n int) *dataset.Dataset {
	d := nn.Dims{N: 4, T: 3, F: 6, M: 5}
	ds := dataset.New(d, 3)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		rh := make([]float64, d.F*d.N*d.T)
		lh := make([]float64, d.T*d.M)
		rc := make([]float64, d.N)
		total := 0.0
		for t := 0; t < d.N; t++ {
			rc[t] = 0.5 + 3*rng.Float64()
			total += rc[t]
		}
		load := 0.5 + rng.Float64()
		for j := range rh {
			rh[j] = load + 0.05*rng.NormFloat64()
		}
		base := (30 + 400*max(0, load*6-total)) * (1 + 0.05*rng.NormFloat64())
		base = min(base, 500)
		for j := range lh {
			lh[j] = base
		}
		ylat := make([]float64, d.M)
		for m := 0; m < d.M; m++ {
			ylat[m] = min(base*(0.9+0.025*float64(m)), 500)
		}
		ds.Append(rh, lh, rc, ylat, base > 200)
	}
	return ds
}

var (
	hybridOnce  sync.Once
	hybridCache *core.HybridModel
)

// trainedHybrid trains (once per test binary) a small but real hybrid
// model, for artifact and registry tests that exercise serialization.
func trainedHybrid(t testing.TB) *core.HybridModel {
	t.Helper()
	hybridOnce.Do(func() {
		ds := lcSynthDataset(1, 400)
		m, _ := core.TrainHybrid(ds, 200, core.TrainOptions{Seed: 1, Epochs: 6, Latent: 8})
		hybridCache = m
	})
	if hybridCache == nil {
		t.Fatal("hybrid training failed")
	}
	return hybridCache
}

// predictAll runs the model over the dataset's inputs and returns the
// latency tensor and violation probabilities.
func predictAll(t testing.TB, m core.Predictor, ds *dataset.Dataset) (*tensor.Dense, []float64) {
	t.Helper()
	pred, pv, err := m.PredictShared(core.NewPredictContext(), nn.SharedInputs(ds.Inputs()))
	if err != nil {
		t.Fatalf("PredictShared: %v", err)
	}
	return pred, pv
}
