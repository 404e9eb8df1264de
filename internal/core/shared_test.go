package core

import (
	"sort"
	"testing"

	"sinan/internal/boost"
	"sinan/internal/cluster"
	"sinan/internal/dataset"
	"sinan/internal/nn"
	"sinan/internal/telemetry"
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

// fullBatchAnswer is the hybrid's answer computed the way the full-batch
// path always has: the CNN over every row, then each row's own window and
// allocation into the trees.
func fullBatchAnswer(m *HybridModel, in nn.Inputs) (lat, pviol []float64) {
	pred, latent := m.Lat.PredictWithLatent(in)
	win := m.D.F * m.D.N * m.D.T
	row := make([]float64, latent.Shape[1]+2*m.D.N)
	pviol = make([]float64, in.Batch())
	for i := range pviol {
		btRowInto(row, latent, i, in.RH.Data[i*win:(i+1)*win], in.RC.Data[i*m.D.N:(i+1)*m.D.N], m.D)
		pviol[i] = m.Viol.PredictProb(row)
	}
	return pred.Data, pviol
}

// TestHybridPredictSharedBitIdentical pins the end-to-end contract for the
// whole hybrid: latency predictions AND violation probabilities at W = 1
// must equal the full-batch answer on the expanded batch bit for bit — the
// BT feature rows (latent ⊕ alloc ⊕ usage/alloc) are assembled from the
// same floats either way — and so must the W = B query of that batch. A
// W = B batch whose windows differ must give each row its own window's
// answer.
func TestHybridPredictSharedBitIdentical(t *testing.T) {
	m := tinyHotelHybrid(t)
	ctx := NewPredictContext()
	for _, b := range []int{1, 3, 50} {
		in := sharedQueryBatch(m.D, b)
		var full nn.Inputs
		in.Expand(&full)
		wantLat, wantPV := fullBatchAnswer(m, full)
		check := func(form string, in nn.SharedInputs) {
			t.Helper()
			gotLat, gotPV, err := m.PredictShared(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			if gotLat.Shape[0] != b || len(gotPV) != b {
				t.Fatalf("b=%d %s: shapes %v/%d", b, form, gotLat.Shape, len(gotPV))
			}
			for i := range wantLat {
				if gotLat.Data[i] != wantLat[i] {
					t.Fatalf("b=%d %s: lat[%d] %v != full %v", b, form, i, gotLat.Data[i], wantLat[i])
				}
			}
			for i := range wantPV {
				if gotPV[i] != wantPV[i] {
					t.Fatalf("b=%d %s: pviol[%d] %v != full %v", b, form, i, gotPV[i], wantPV[i])
				}
			}
		}
		check("W = 1", in)
		check("W = B", nn.SharedInputs(full))

		for i := range full.RH.Data {
			full.RH.Data[i] += float64(i%(7*b+3)) * 0.01 // every row's window its own
		}
		wantLat, wantPV = fullBatchAnswer(m, full)
		check("W = B, distinct windows", nn.SharedInputs(full))
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
// dataset's CPU-usage channel indexes cluster.Stats.Features(), and btRowInto's
// prospective-utilization term reads CPU usage — not whichever feature
// happens to sit at row zero — at the window's newest timestep.
func TestBTRowChannelLayout(t *testing.T) {
	s := cluster.Stats{CPUUsage: 1, CPULimit: 2, RSS: 3, Cache: 4, NetRx: 5, NetTx: 6}
	fs := s.Features()
	if fs[dataset.ChanCPUUsage] != s.CPUUsage {
		t.Fatalf("dataset.ChanCPUUsage = %d does not index CPU usage in cluster.Stats.Features(): %v", dataset.ChanCPUUsage, fs)
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

// TestSchedulerPayloadGauge pins the sched.predict.payload_floats
// accounting: one decision ships the history window once plus B allocation
// rows.
func TestSchedulerPayloadGauge(t *testing.T) {
	app := testApp()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	alloc := mkAlloc(app, 4)
	m := &shedModel{inner: &fakeModel{d: d, qos: 200, rmse: 10, needCores: 10}}
	s, reg := NewScheduler(app, m, SchedulerOptions{}), telemetry.NewRegistry()
	s.AttachMetrics(reg)
	for i := 0; i <= d.T; i++ {
		s.Decide(stateFor(app, 20, alloc, 0.3))
	}
	if len(m.batches) == 0 {
		t.Fatal("no model query")
	}
	b := m.batches[len(m.batches)-1]
	if b < 2 {
		t.Fatalf("last query scored %d candidates, want several", b)
	}
	got := reg.Gauge("sched.predict.payload_floats").Value()
	if want := float64(d.F*d.N*d.T + d.T*d.M + b*d.N); got != want {
		t.Fatalf("payload = %v, want %v (b=%d)", got, want, b)
	}
}
