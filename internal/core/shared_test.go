package core

import (
	"sort"
	"testing"

	"sinan/internal/boost"
	"sinan/internal/cluster"
	"sinan/internal/dataset"
	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// sharedQueryBatch is hybridQueryBatch in deduplicated form: one history
// window, b allocation rows.
func sharedQueryBatch(d nn.Dims, b int) nn.SharedInputs {
	in := nn.SharedInputs{
		RH: tensor.New(1, d.F, d.N, d.T),
		LH: tensor.New(1, d.T, d.M),
		RC: tensor.New(b, d.N),
	}
	for i := range in.RH.Data {
		in.RH.Data[i] = float64(i%13) * 0.1
	}
	for i := range in.LH.Data {
		in.LH.Data[i] = float64(i%7) * 5
	}
	for i := range in.RC.Data {
		in.RC.Data[i] = 1 + float64(i%5)*0.5
	}
	return in
}

// TestHybridPredictSharedBitIdentical pins the end-to-end contract for the
// whole hybrid: latency predictions AND violation probabilities from the
// shared path must equal the expanded full-batch path bit for bit — the BT
// feature rows (latent ⊕ alloc ⊕ usage/alloc) are assembled from the same
// floats either way.
func TestHybridPredictSharedBitIdentical(t *testing.T) {
	m := tinyHotelHybrid(t)
	for _, b := range []int{1, 3, 50} {
		in := sharedQueryBatch(m.D, b)
		var full nn.Inputs
		in.Expand(&full)
		wantLat, wantPV, err := m.PredictBatch(nil, full)
		if err != nil {
			t.Fatal(err)
		}
		wantLat = wantLat.Clone()
		wantPV = append([]float64(nil), wantPV...)

		gotLat, gotPV, err := m.PredictShared(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if gotLat.Shape[0] != b || len(gotPV) != b {
			t.Fatalf("b=%d: shared shapes %v/%d", b, gotLat.Shape, len(gotPV))
		}
		for i := range wantLat.Data {
			if gotLat.Data[i] != wantLat.Data[i] {
				t.Fatalf("b=%d: lat[%d] shared %v != full %v", b, i, gotLat.Data[i], wantLat.Data[i])
			}
		}
		for i := range wantPV {
			if gotPV[i] != wantPV[i] {
				t.Fatalf("b=%d: pviol[%d] shared %v != full %v", b, i, gotPV[i], wantPV[i])
			}
		}
	}
}

// plainPredictor hides the hybrid's shared path, leaving only the
// core.Predictor surface.
type plainPredictor struct{ m *HybridModel }

func (p plainPredictor) Meta() ModelMeta { return p.m.Meta() }
func (p plainPredictor) PredictBatch(ctx *PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	return p.m.PredictBatch(ctx, in)
}

// TestPredictSharedAutoFallback proves the scheduler-facing dispatch: a
// predictor without a shared path gets the expanded batch and produces the
// same answer, so Scheduler.score never needs to branch.
func TestPredictSharedAutoFallback(t *testing.T) {
	m := tinyHotelHybrid(t)
	in := sharedQueryBatch(m.D, 9)
	wantLat, wantPV, err := m.PredictShared(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	wantLat = wantLat.Clone()
	wantPV = append([]float64(nil), wantPV...)

	gotLat, gotPV, err := PredictSharedAuto(plainPredictor{m}, nil, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantLat.Data {
		if gotLat.Data[i] != wantLat.Data[i] {
			t.Fatalf("fallback lat[%d] = %v, want %v", i, gotLat.Data[i], wantLat.Data[i])
		}
	}
	for i := range wantPV {
		if gotPV[i] != wantPV[i] {
			t.Fatalf("fallback pviol[%d] = %v, want %v", i, gotPV[i], wantPV[i])
		}
	}
}

// TestCalibrateThresholdsFewViolations is the regression for the frozen-
// reclamation bug: with fewer than minCalibViolations violation samples the
// 1%-FN index truncates to zero, p_u collapses to the single lowest
// predicted probability, and the floor drags it to 0.15 — so the calibrator
// must refuse to quantile and keep the 0.25/0.5 defaults instead.
func TestCalibrateThresholdsFewViolations(t *testing.T) {
	d := 4
	mkX := func(v float64) []float64 {
		x := make([]float64, d)
		for i := range x {
			x[i] = v
		}
		return x
	}
	var X [][]float64
	var y []bool
	for i := 0; i < 50; i++ {
		X = append(X, mkX(float64(i%10)/10), mkX(1-float64(i%10)/10))
		y = append(y, true, false)
	}
	bt := boost.Train(X, y, boost.Config{NumTrees: 10}, nil, nil)

	pd, pu := calibrateThresholds(bt, X, y) // 50 violations < minCalibViolations
	if pd != 0.25 || pu != 0.5 {
		t.Fatalf("few violations: got pd=%v pu=%v, want defaults 0.25/0.5", pd, pu)
	}

	// At or above the minimum the quantile path engages: thresholds come
	// from the data and respect the floor/ceiling and pd = pu/2 invariants.
	for len(y) < 2*minCalibViolations {
		X = append(X, mkX(float64(len(y)%10)/10), mkX(1-float64(len(y)%10)/10))
		y = append(y, true, false)
	}
	pd, pu = calibrateThresholds(bt, X, y)
	var violProbs []float64
	for i, x := range X {
		if y[i] {
			violProbs = append(violProbs, bt.PredictProb(x))
		}
	}
	sort.Float64s(violProbs)
	wantPu := violProbs[len(violProbs)/100]
	if wantPu < 0.15 {
		wantPu = 0.15
	}
	if wantPu > 0.9 {
		wantPu = 0.9
	}
	if pu != wantPu || pd != pu/2 {
		t.Fatalf("many violations: got pd=%v pu=%v, want quantile pu=%v pd=%v", pd, pu, wantPu, wantPu/2)
	}
}

// TestBTRowChannelLayout asserts the channel contract end to end: the
// dataset constants index cluster.Stats.Features(), and btRowInto's
// prospective-utilization term reads CPU usage — not whichever feature
// happens to sit at row zero — at the window's newest timestep.
func TestBTRowChannelLayout(t *testing.T) {
	s := cluster.Stats{CPUUsage: 1, CPULimit: 2, RSS: 3, Cache: 4, NetRx: 5, NetTx: 6}
	fs := s.Features()
	if fs[dataset.ChanCPUUsage] != s.CPUUsage || fs[dataset.ChanCPULimit] != s.CPULimit ||
		fs[dataset.ChanRSS] != s.RSS || fs[dataset.ChanCache] != s.Cache ||
		fs[dataset.ChanNetRx] != s.NetRx || fs[dataset.ChanNetTx] != s.NetTx {
		t.Fatalf("dataset channel constants disagree with cluster.Stats.Features() order: %v", fs)
	}

	d := nn.Dims{N: 3, T: 4, F: cluster.NumStatFeatures, M: 2}
	rhWin := make([]float64, d.F*d.N*d.T)
	for i := range rhWin {
		rhWin[i] = -100 // poison: any read outside the CPU-usage channel shows up
	}
	usage := []float64{0.5, 1.5, 2.5}
	for n := 0; n < d.N; n++ {
		rhWin[(dataset.ChanCPUUsage*d.N+n)*d.T+d.T-1] = usage[n]
	}
	rc := []float64{1, 2, 4}
	latent := tensor.FromSlice([]float64{7, 8}, 1, 2)
	row := make([]float64, 2+2*d.N)
	btRowInto(row, latent, 0, rhWin, rc, d)
	want := []float64{7, 8, 1, 2, 4, 0.5, 0.75, 0.625}
	for i, w := range want {
		if row[i] != w {
			t.Fatalf("bt row[%d] = %v, want %v (full row %v)", i, row[i], w, row)
		}
	}
}

// sharedFake upgrades the scheduler tests' fakeModel to a SharedPredictor
// by expanding internally — its answers are unchanged, only the dispatch
// in Scheduler.score differs.
type sharedFake struct{ *fakeModel }

func (s sharedFake) PredictShared(ctx *PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	if ctx == nil {
		ctx = NewPredictContext()
	}
	in.Expand(&ctx.expand)
	return s.fakeModel.PredictBatch(ctx, ctx.expand)
}

// TestSchedulerPayloadGauge pins the sched.predict.payload_floats
// accounting: against a shared-capable predictor one decision ships the
// history window once plus B allocation rows; against a plain predictor it
// ships the expanded batch. The two gauges must describe the same
// candidate count B — and the shared payload must be the smaller one.
func TestSchedulerPayloadGauge(t *testing.T) {
	app := testApp()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	alloc := mkAlloc(app, 4)

	decideOnce := func(m Predictor) float64 {
		f := &fakeModel{d: d, qos: 200, rmse: 10, needCores: 10}
		if _, shared := m.(SharedPredictor); shared {
			m = sharedFake{f}
		} else {
			m = f
		}
		s := NewScheduler(app, m, SchedulerOptions{})
		for i := 0; i < d.T; i++ {
			s.Decide(stateFor(app, 20, alloc, 0.3))
		}
		s.Decide(stateFor(app, 20, alloc, 0.3))
		return s.Metrics().Gauge("sched.predict.payload_floats").Value()
	}

	plain := decideOnce(&fakeModel{})
	shared := decideOnce(sharedFake{})
	winFloats := float64(d.F*d.N*d.T + d.T*d.M)
	perCand := float64(d.N)
	b := plain / (winFloats + perCand)
	if b < 2 || b != float64(int(b)) {
		t.Fatalf("plain payload %v does not describe an integer batch (b=%v)", plain, b)
	}
	if want := winFloats + b*perCand; shared != want {
		t.Fatalf("shared payload = %v, want %v (b=%v)", shared, want, b)
	}
	if shared >= plain {
		t.Fatalf("shared payload %v not smaller than expanded %v", shared, plain)
	}
}
