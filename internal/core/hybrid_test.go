package core

import (
	"bytes"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/baselines"
	"sinan/internal/collect"
	"sinan/internal/dataset"
	"sinan/internal/runner"
	"sinan/internal/workload"
)

// collectHotel gathers a boundary-focused dataset on Hotel Reservation.
func collectHotel(t *testing.T, seconds float64, seed int64) (*apps.App, *dataset.Dataset) {
	t.Helper()
	app := apps.NewHotelReservation()
	ds := collect.Run(collect.Config{
		App:      app,
		Policy:   collect.NewBandit(app, seed),
		Pattern:  collect.SweepPattern{MinRPS: 500, MaxRPS: 3000, SegmentLen: 30, Seed: seed},
		Duration: seconds,
		Seed:     seed,
		Dims:     collect.DefaultDims(app),
		K:        5,
	})
	return app, ds
}

// The two full pipelines below collect and train their own data, so they run
// in parallel with each other, after the package's serial tests (the
// allocation guards among them) have finished.

func TestTrainHybridEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	t.Parallel()
	app, ds := collectHotel(t, 2000, 42)
	if ds.Len() < 1000 {
		t.Fatalf("dataset too small: %d", ds.Len())
	}
	m, rep := TrainHybrid(ds, app.QoSMS, TrainOptions{Seed: 1, Epochs: 10})
	t.Logf("samples=%d viol=%.2f trainRMSE=%.1f valRMSE=%.1f acc=%.3f/%.3f trees=%d fnr=%.3f pu=%.2f",
		ds.Len(), ds.ViolationRate(), rep.TrainRMSE, rep.ValRMSE,
		rep.TrainAcc, rep.ValAcc, rep.NumTrees, rep.ValFNR, m.Pu)

	// Full-range RMSE is NOT the model's objective: the φ-scaled loss
	// deliberately sacrifices accuracy on deep-violation spikes, so a heavy
	// tail can make the plain mean-predictor "win" on that metric. The CNN
	// must instead clearly beat the mean predictor in the sub-QoS region
	// the scheduler's latency filter operates in, and stay sane overall.
	meanRMSE := baselineRMSE(ds)
	if rep.ValRMSE >= meanRMSE*1.5 {
		t.Fatalf("CNN valRMSE %.1f wildly above mean-predictor %.1f", rep.ValRMSE, meanRMSE)
	}
	subDS := ds.FilterByP99(app.QoSMS)
	subMean := baselineRMSE(subDS)
	// Hotel's sub-QoS latencies sit near the service-time noise floor, so
	// the margin over the mean predictor is modest; the decisive functional
	// check is the deployment test (TestSinanMeetsQoSAndSavesCPU).
	if rep.ValRMSESubQoS >= subMean*0.95 {
		t.Fatalf("CNN sub-QoS RMSE %.1f not better than sub-QoS mean-predictor %.1f",
			rep.ValRMSESubQoS, subMean)
	}
	// The BT is trained with balanced class weights, which trades raw
	// accuracy at the 0.5 threshold for recall on the rare violation class
	// (the scheduler's thresholds are calibrated separately). The right
	// informativeness check is balanced accuracy: (TPR + TNR) / 2.
	balanced := ((1 - rep.ValFNR) + (1 - rep.ValFPR)) / 2
	if balanced < 0.65 {
		t.Fatalf("BT balanced accuracy %.3f too low (FNR %.2f FPR %.2f)",
			balanced, rep.ValFNR, rep.ValFPR)
	}
	if m.Pu <= m.Pd {
		t.Fatalf("thresholds inverted: pd=%v pu=%v", m.Pd, m.Pu)
	}

	// Encode/DecodeHybrid round-trips the whole hybrid.
	payload, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeHybrid(payload)
	if err != nil {
		t.Fatal(err)
	}
	if m2.QoSMS != m.QoSMS || m2.Pu != m.Pu || m2.K != m.K {
		t.Fatal("hybrid metadata lost in round trip")
	}
}

func baselineRMSE(ds *dataset.Dataset) float64 {
	mean := 0.0
	for _, v := range ds.YLat {
		mean += v
	}
	mean /= float64(len(ds.YLat))
	s := 0.0
	for _, v := range ds.YLat {
		s += (v - mean) * (v - mean)
	}
	return sqrt(s / float64(len(ds.YLat)))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// pinSinanRun checks the digest of the real-model managed run below. It is
// set only in builds whose floating-point results are pinned (pin_test.go).
var pinSinanRun func(*testing.T, *runner.Result)

func TestSinanMeetsQoSAndSavesCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	t.Parallel()
	app, ds := collectHotel(t, 3000, 7)
	m, rep := TrainHybrid(ds, app.QoSMS, TrainOptions{Seed: 2, Epochs: 15})
	t.Logf("valRMSE=%.1f valAcc=%.3f pu=%.2f pd=%.2f", rep.ValRMSE, rep.ValAcc, m.Pu, m.Pd)

	const load = 2000
	runWith := func(p runner.Policy) *runner.Result {
		return runner.Run(runner.Config{
			App: app, Policy: p, Pattern: workload.Constant(load),
			Duration: 180, Seed: 33, Warmup: 30, KeepTrace: true,
		})
	}
	sinan := runWith(NewScheduler(app, m, SchedulerOptions{}))
	if pinSinanRun != nil {
		pinSinanRun(t, sinan)
	}
	cons := runWith(baselines.NewAutoScaleCons())
	opt := runWith(baselines.NewAutoScaleOpt())
	t.Logf("sinan: meet=%.3f mean=%.1f max=%.1f", sinan.Meter.MeetProb(), sinan.Meter.MeanAlloc(), sinan.Meter.MaxAlloc())
	t.Logf("cons : meet=%.3f mean=%.1f max=%.1f", cons.Meter.MeetProb(), cons.Meter.MeanAlloc(), cons.Meter.MaxAlloc())
	t.Logf("opt  : meet=%.3f mean=%.1f max=%.1f", opt.Meter.MeetProb(), opt.Meter.MeanAlloc(), opt.Meter.MaxAlloc())

	if sinan.Meter.MeetProb() < 0.95 {
		t.Fatalf("Sinan meet prob %.3f < 0.95", sinan.Meter.MeetProb())
	}
	if sinan.Meter.MeanAlloc() >= cons.Meter.MeanAlloc() {
		t.Fatalf("Sinan mean CPU %.1f should undercut AutoScaleCons %.1f",
			sinan.Meter.MeanAlloc(), cons.Meter.MeanAlloc())
	}
	// On Hotel, Sinan also undercuts the cheaper autoscaler, as the paper's
	// Fig. 11 claims; on Social it does not (EXPERIMENTS.md D4).
	if sinan.Meter.MeanAlloc() >= opt.Meter.MeanAlloc() {
		t.Fatalf("Sinan mean CPU %.1f should undercut AutoScaleOpt %.1f",
			sinan.Meter.MeanAlloc(), opt.Meter.MeanAlloc())
	}
}

// FuzzDecodeHybrid drives arbitrary bytes through the payload decoder, the
// code behind the artifact's checksum: it must return an error or a model
// that encodes back to the same bytes and predicts without panicking.
func FuzzDecodeHybrid(f *testing.F) {
	payload, err := tinyHotelHybrid(f).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add(payload[:len(payload)-1])
	flip := bytes.Clone(payload)
	flip[len(flip)-40] ^= 0x08 // inside the trees
	f.Add(flip)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeHybrid(data)
		if err != nil {
			return
		}
		again, err := m.Encode()
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("DecodeHybrid accepted %d bytes that encode back as %d others (%v)", len(data), len(again), err)
		}
		if _, _, err := m.PredictShared(nil, hybridQueryBatch(m.D, 2)); err != nil {
			t.Fatal(err)
		}
	})
}
