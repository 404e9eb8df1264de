package runner_test

import (
	"math/rand"
	"runtime"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/baselines"
	"sinan/internal/boost"
	"sinan/internal/core"
	"sinan/internal/nn"
	"sinan/internal/predsvc"
	"sinan/internal/runner"
	"sinan/internal/tensor"
	"sinan/internal/workload"
)

// untrainedHybrid is a real hybrid model at app's dims, fit for two epochs
// on noise: its answers are arbitrary, which sends the scheduler through
// reclaims, ramps and cool-downs — every one of them must allocate nothing.
func untrainedHybrid(app *apps.App) *core.HybridModel {
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	const latent, n = 8, 64
	rng := rand.New(rand.NewSource(1))
	in := nn.Inputs{RH: tensor.New(n, d.F, d.N, d.T), LH: tensor.New(n, d.T, d.M), RC: tensor.New(n, d.N)}
	y := tensor.New(n, d.M)
	for i := range in.RH.Data {
		in.RH.Data[i] = rng.Float64()
	}
	for i := range in.RC.Data {
		in.RC.Data[i] = 1 + rng.Float64()
	}
	for i := range y.Data {
		y.Data[i] = app.QoSMS * (0.3 + 0.6*rng.Float64())
	}
	tm := nn.Train(nn.NewLatencyCNN(rng, d, latent), in, y, nn.TrainConfig{Epochs: 2, Batch: 16, QoSMS: app.QoSMS, Seed: 1})
	X := make([][]float64, 4)
	for i := range X {
		X[i] = make([]float64, latent+2*d.N)
		X[i][0] = float64(i) / 4
	}
	bt := boost.Train(X, []bool{false, true, false, true}, boost.Config{NumTrees: 5}, nil, nil)
	return &core.HybridModel{Lat: tm, Viol: bt, D: d, K: 5, QoSMS: app.QoSMS, RMSEValid: 20, Pd: 0.1, Pu: 0.3}
}

// A managed decision interval allocates nothing in steady state: the stats
// plane, the history windows, the scheduler, the trace and the prediction
// service's round trip all reuse buffers with one owner each (DESIGN.md §8,
// "Buffer ownership"). A run of 2N intervals allocates what a run of N does,
// but for the few objects the simulator's call pool and queues take when the
// longer run reaches a new peak of requests in flight; at 4, 6.4 and 17
// objects per interval before, the difference was the whole per-interval
// cost.
func TestIntervalAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("nine managed runs")
	}
	social := apps.NewSocialNetwork()
	model := untrainedHybrid(social)
	srv, _, err := predsvc.ListenAndServe("127.0.0.1:0", model)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := predsvc.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Slowness-driven brownout reads the wall clock; off, so both runs of a
	// pair take the same decisions.
	sinan := func(p core.Predictor) func() runner.Policy {
		return func() runner.Policy { return core.NewScheduler(social, p, core.SchedulerOptions{SlowPredictMS: -1}) }
	}
	const n = 400
	for _, tc := range []struct {
		name string
		mk   func() runner.Policy
	}{
		{"sinan/inproc", sinan(model)},
		{"sinan/predsvc", sinan(client)},
		{"autoscale", func() runner.Policy { return baselines.NewAutoScaleCons() }},
	} {
		mallocs := func(intervals int) uint64 {
			pol := tc.mk()
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			runner.Run(runner.Config{
				App: social, Policy: pol, Pattern: workload.Constant(300),
				Duration: float64(intervals) * runner.Interval, Seed: 1, KeepTrace: true,
			})
			runtime.ReadMemStats(&m1)
			if s, ok := pol.(*core.Scheduler); ok && (s.CandidatesScored() == 0 || s.PredictErrors() > 0) {
				t.Fatalf("%s: the scheduler never queried its model, or the model failed", tc.name)
			}
			return m1.Mallocs - m0.Mallocs
		}
		mallocs(n) // warm what outlives a run: the client's connection and the server's scratch
		once, twice := mallocs(n), mallocs(2*n)
		perInterval := (float64(twice) - float64(once)) / n
		t.Logf("%s: %d objects over %d intervals, %d over %d: %.3f per interval", tc.name, once, n, twice, 2*n, perInterval)
		if perInterval > 0.05 {
			t.Errorf("%s: a decision interval allocates %.3f objects, want ≤ 0.05", tc.name, perInterval)
		}
	}
}
