package main

import (
	"math/rand"
	"runtime"
	"time"

	"sinan/internal/apps"
	"sinan/internal/boost"
	"sinan/internal/cluster"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/harness"
	"sinan/internal/nn"
	"sinan/internal/sim"
	"sinan/internal/tensor"
	"sinan/internal/workload"
)

// The probes time single layers directly, outside the control loop, so that
// each layer has a number that no other layer dilutes. Every probe returns
// its metrics by the names listed in perLayer.

// timedAllocs runs fn and returns its wall time and heap allocations.
func timedAllocs(fn func()) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs
}

// probeSim pushes n timer events through sim.Engine with about a thousand
// pending at any time: each fired event schedules its successor.
func probeSim(n int, out map[string]float64) {
	const pending = 1000
	eng := &sim.Engine{}
	rng := rand.New(rand.NewSource(1))
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired+pending <= n {
			eng.After(rng.Float64(), tick)
		}
	}
	for i := 0; i < pending; i++ {
		eng.At(rng.Float64(), tick)
	}
	d, allocs := timedAllocs(func() { eng.Run(float64(n)) })
	out["sim.events_per_s"] = float64(fired) / d.Seconds()
	out["sim.allocs_per_event"] = float64(allocs) / float64(fired)
}

// probeCluster drives engine + cluster + generator directly, with no policy
// and no stats plane, at the two request rates the managed workloads see.
func probeCluster(simSec float64, out map[string]float64) {
	var wall time.Duration
	var allocs uint64
	var requests int64
	for _, c := range []struct {
		app *apps.App
		rps float64
	}{{apps.NewSocialNetwork(), 300}, {apps.NewHotelReservation(), 2000}} {
		eng := &sim.Engine{}
		cl := cluster.New(eng, sim.NewRNG(1), c.app.Tiers)
		gen := workload.NewGenerator(cl, c.app, sim.NewRNG(2), workload.Constant(c.rps))
		gen.Start()
		d, a := timedAllocs(func() { eng.Run(simSec) })
		wall, allocs, requests = wall+d, allocs+a, requests+gen.Submitted()
	}
	out["cluster.us_per_request"] = us(wall) / float64(requests)
	out["cluster.allocs_per_request"] = float64(allocs) / float64(requests)
	out["cluster.requests_per_s"] = float64(requests) / wall.Seconds()
}

// btRow builds one Boosted Trees design row — CNN latent, candidate
// allocation, prospective utilisation read from the history window — in the
// layout of core's unexported btRowInto, so that the trees are timed on the
// rows they see in production.
func btRow(latent, rhWindow, alloc []float64, d nn.Dims) []float64 {
	row := make([]float64, 0, len(latent)+2*d.N)
	row = append(append(row, latent...), alloc...)
	for t := 0; t < d.N; t++ {
		usage := rhWindow[(dataset.ChanCPUUsage*d.N+t)*d.T+d.T-1]
		row = append(row, usage/max(alloc[t], 1e-9))
	}
	return row
}

// probePredict replays captured scheduler queries through the CNN alone and
// through the trees alone.
func probePredict(m *core.HybridModel, queries []nn.SharedInputs, reps int, out map[string]float64) {
	ctx := nn.NewContext()
	var cnn, trees []time.Duration
	for rep := 0; rep <= reps; rep++ {
		for _, q := range queries {
			t0 := time.Now()
			_, latent := m.Lat.PredictSharedCtx(ctx, q)
			t1 := time.Now()
			l, n := latent.Shape[1], m.D.N
			rows := make([][]float64, q.Batch())
			for i := range rows {
				rows[i] = btRow(latent.Data[i*l:(i+1)*l], q.RH.Data, q.RC.Data[i*n:(i+1)*n], m.D)
			}
			t2 := time.Now()
			m.Viol.PredictBatch(rows)
			t3 := time.Now()
			if rep > 0 { // the first sweep sizes the context's buffers
				cnn, trees = append(cnn, t1.Sub(t0)), append(trees, t3.Sub(t2))
			}
		}
	}
	out["nn.predict_shared_ms_p50"] = median(durs(cnn, ms))
	out["boost.predict_ms_p50"] = median(durs(trees, ms))
}

// probeTrain calls nn.Train and boost.Train directly on the split and
// configuration core.TrainHybrid uses, so that trainWall (one measured
// TrainHybrid of the same epochs) can be apportioned.
func probeTrain(ds *dataset.Dataset, epochs int, trainWall time.Duration, out map[string]float64) {
	train, val := ds.Split(0.9, trainSeed)
	cnn := nn.NewLatencyCNN(rand.New(rand.NewSource(trainSeed)), ds.D, 32)
	t0 := time.Now()
	tm := nn.Train(cnn, train.Inputs(), train.Targets(), nn.TrainConfig{
		Epochs: epochs, Batch: 256, LR: 0.01, QoSMS: socialQoSMS, Seed: trainSeed,
	})
	nnWall := time.Since(t0)
	out["nn.train_epoch_ms"] = ms(nnWall) / float64(epochs)
	out["nn.train_samples_per_s"] = float64(epochs*train.Len()) / nnWall.Seconds()
	out["core.train_other_ms"] = ms(trainWall - nnWall)

	features := func(part *dataset.Dataset) [][]float64 {
		in, d := part.Inputs(), ds.D
		_, latent := tm.PredictWithLatent(in)
		l, win := latent.Shape[1], d.F*d.N*d.T
		rows := make([][]float64, part.Len())
		for i := range rows {
			rows[i] = btRow(latent.Data[i*l:(i+1)*l], in.RH.Data[i*win:(i+1)*win], in.RC.Data[i*d.N:(i+1)*d.N], d)
		}
		return rows
	}
	trX, vaX := features(train), features(val)
	pos := 0
	for _, v := range train.YViol {
		if v {
			pos++
		}
	}
	cfg := boost.Config{NumTrees: 200, MaxDepth: 5, EarlyStopping: 25}
	if pos > 0 && pos < train.Len() {
		cfg.PosWeight = float64(train.Len()-pos) / float64(pos)
	}
	t0 = time.Now()
	boost.Train(trX, train.YViol, cfg, vaX, val.YViol)
	out["boost.train_ms"] = ms(time.Since(t0))
}

// probeMatMul times tensor.MatMulInto at the three GEMM shapes one 64-sample
// training shard of the LatencyCNN produces on SocialNetwork (28 tiers x 5
// timesteps): conv1 and conv2 as [Cout, Cin*9] x [Cin*9, 64*140], and the
// flattened-history dense layer as [64, 1120] x [1120, 24].
func probeMatMul(reps int, out map[string]float64) {
	rng := rand.New(rand.NewSource(1))
	fill := func(t *tensor.Dense) *tensor.Dense {
		for i := range t.Data {
			t.Data[i] = rng.NormFloat64()
		}
		return t
	}
	var flops float64
	var wall time.Duration
	for _, s := range [][3]int{{8, 54, 8960}, {8, 72, 8960}, {64, 1120, 24}} {
		m, k, n := s[0], s[1], s[2]
		a, b, dst := fill(tensor.New(m, k)), fill(tensor.New(k, n)), tensor.New(m, n)
		tensor.MatMulInto(dst, a, b)
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			tensor.MatMulInto(dst, a, b)
		}
		wall += time.Since(t0)
		flops += 2 * float64(m*k*n) * float64(reps)
	}
	out["tensor.matmul_gflops"] = flops / wall.Seconds() / 1e9
}

// probeHarness runs a four-run suite with one worker and with GOMAXPROCS
// workers; efficiency is speed-up per worker.
func probeHarness(s *session, out map[string]float64) {
	suite := func() harness.Suite {
		var specs []harness.RunSpec
		for i, rps := range []float64{150, 200, 250, 300} {
			specs = append(specs, harness.RunSpec{
				Name: "probe", App: s.social, Pattern: workload.Constant(rps),
				Policy:   core.SchedulerFactory(s.social, s.model, core.SchedulerOptions{SlowPredictMS: -1}),
				Duration: s.sc.HarnessSec, Seed: int64(1 + i),
			})
		}
		return harness.Suite{Name: "bench-probe", BaseSeed: 1, Specs: specs}
	}
	workers := runtime.GOMAXPROCS(0)
	t0 := time.Now()
	harness.Run(suite(), harness.Options{Workers: 1})
	serial := time.Since(t0)
	t0 = time.Now()
	harness.Run(suite(), harness.Options{Workers: workers})
	parallel := time.Since(t0)
	out["harness.par_efficiency"] = serial.Seconds() / parallel.Seconds() / float64(workers)
}
