package sinan

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"sinan/internal/apps"
	"sinan/internal/boost"
	"sinan/internal/cluster"
	"sinan/internal/core"
	"sinan/internal/experiments"
	"sinan/internal/nn"
	"sinan/internal/sim"
	"sinan/internal/tensor"
	"sinan/internal/workload"
)

// The experiment benchmarks below regenerate the paper's tables and figures
// (quick-mode sizes). Expensive shared artifacts — collected datasets and
// trained models — are cached in one lab across benchmarks, mirroring how
// `sinan-bench -exp all` runs. Each benchmark iteration executes the full
// experiment, so `go test -bench=.` runs each once (they exceed the default
// 1s benchtime). Rendered tables go to stdout when -v is set; otherwise the
// results are summarised through the reported metrics.

var (
	labOnce sync.Once
	lab     *experiments.Lab
)

func sharedLab() *experiments.Lab {
	labOnce.Do(func() {
		lab = experiments.NewLab(true, os.Stderr)
	})
	return lab
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		tables := e.Run(l)
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no results", id)
		}
		// The rendered tables ARE the reproduction evidence; always emit them
		// so benchmark logs double as experiment reports.
		for _, t := range tables {
			t.Render(os.Stdout)
		}
	}
}

func BenchmarkFig3DelayedQueueing(b *testing.B)      { runExperiment(b, "fig3") }
func BenchmarkFig4MultiTaskNN(b *testing.B)          { runExperiment(b, "fig4") }
func BenchmarkFig9BoundaryData(b *testing.B)         { runExperiment(b, "fig9") }
func BenchmarkFig10CollectionPolicies(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkTable2LatencyPredictors(b *testing.B)  { runExperiment(b, "table2") }
func BenchmarkTable3ViolationPredictor(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkFig11PolicyComparison(b *testing.B)    { runExperiment(b, "fig11") }
func BenchmarkFig12Timeline(b *testing.B)            { runExperiment(b, "fig12") }
func BenchmarkFig13Retraining(b *testing.B)          { runExperiment(b, "fig13") }
func BenchmarkFig14GCEMixes(b *testing.B)            { runExperiment(b, "fig14") }
func BenchmarkFig16RedisLogSync(b *testing.B)        { runExperiment(b, "fig16") }
func BenchmarkTable4Explainability(b *testing.B)     { runExperiment(b, "table4") }
func BenchmarkAblations(b *testing.B)                { runExperiment(b, "ablation") }

// --- micro-benchmarks of the substrates ---

// BenchmarkSimulatorThroughput measures raw request execution through the
// Social Network call trees (events/sec of the discrete-event core).
func BenchmarkSimulatorThroughput(b *testing.B) {
	app := apps.NewSocialNetwork()
	eng := &sim.Engine{}
	cl := cluster.New(eng, sim.NewRNG(1), app.Tiers)
	gen := workload.NewGenerator(cl, app, sim.NewRNG(2), workload.Constant(300))
	gen.Start()
	b.ReportAllocs()
	b.ResetTimer()
	horizon := 0.0
	for i := 0; i < b.N; i++ {
		horizon += 1.0
		eng.Run(horizon) // one simulated second per iteration
	}
	b.ReportMetric(float64(gen.Submitted())/float64(b.N), "requests/simsec")
}

// BenchmarkCNNInference measures one scheduler-sized model query (the
// per-decision-interval cost, ~200 candidates).
func BenchmarkCNNInference(b *testing.B) {
	d := nn.Dims{N: 28, T: 5, F: 6, M: 5}
	model := nn.NewLatencyCNN(rand.New(rand.NewSource(1)), d, 32)
	const cands = 200
	in := nn.Inputs{
		RH: tensor.New(cands, d.F, d.N, d.T),
		LH: tensor.New(cands, d.T, d.M),
		RC: tensor.New(cands, d.N),
	}
	for i := range in.RH.Data {
		in.RH.Data[i] = float64(i%17) * 0.1
	}
	ctx := nn.NewContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Forward(ctx, in)
	}
}

// BenchmarkConvForward measures the im2col+GEMM Conv2D forward on a
// scheduler-sized batch.
func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv := nn.NewConv2D(rng, "conv", 6, 32, 3, 1)
	const cands = 200
	x := tensor.New(cands, 6, 28, 5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	ctx := nn.NewContext()
	conv.Forward(ctx, x) // warm the tape buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Reset()
		conv.Forward(ctx, x)
	}
}

// BenchmarkPredictBatch measures one full hybrid-model query (CNN + boosted
// trees) through a reused prediction context — the scheduler's steady-state
// per-decision cost.
func BenchmarkPredictBatch(b *testing.B) {
	l := sharedLab()
	m, _ := l.SocialModel()
	d := m.D
	const cands = 200
	in := nn.Inputs{
		RH: tensor.New(cands, d.F, d.N, d.T),
		LH: tensor.New(cands, d.T, d.M),
		RC: tensor.New(cands, d.N),
	}
	for i := range in.RH.Data {
		in.RH.Data[i] = float64(i%17) * 0.1
	}
	for i := range in.RC.Data {
		in.RC.Data[i] = 2
	}
	ctx := core.NewPredictContext()
	m.PredictBatch(ctx, in) // warm the context buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch(ctx, in)
	}
}

// BenchmarkPredictShared compares shared-history candidate evaluation
// against the naive per-candidate form at scheduler-relevant batch sizes
// (172 is what the scheduler sends on SocialNetwork, the benchmark's
// core.candidates_per_query): the naive path recomputes the conv trunk B
// times on B bit-identical history windows (and would ship B copies over the
// wire), the shared path runs it once and broadcasts. Reports, per batch
// size, the naive time, the speedup and both wire payload sizes (floats per
// query) as extra metrics.
func BenchmarkPredictShared(b *testing.B) {
	l := sharedLab()
	m, _ := l.SocialModel()
	d := m.D
	for _, cands := range []int{8, 64, 172} {
		b.Run(fmt.Sprintf("B%d", cands), func(b *testing.B) {
			in := nn.SharedInputs{
				RH: tensor.New(1, d.F, d.N, d.T),
				LH: tensor.New(1, d.T, d.M),
				RC: tensor.New(cands, d.N),
			}
			for i := range in.RH.Data {
				in.RH.Data[i] = float64(i%17) * 0.1
			}
			for i := range in.LH.Data {
				in.LH.Data[i] = float64(i%7) * 5
			}
			for i := range in.RC.Data {
				in.RC.Data[i] = 2
			}
			var full nn.Inputs
			in.Expand(&full)
			ctx := core.NewPredictContext()

			m.PredictBatch(ctx, full) // warm the context buffers
			naiveStart := time.Now()
			const naiveReps = 5
			for i := 0; i < naiveReps; i++ {
				m.PredictBatch(ctx, full)
			}
			naiveMS := float64(time.Since(naiveStart).Microseconds()) / 1000 / naiveReps

			m.PredictShared(ctx, in) // warm the shared buffers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictShared(ctx, in)
			}
			b.StopTimer()
			sharedMS := float64(b.Elapsed().Microseconds()) / 1000 / float64(b.N)
			winFloats := d.F*d.N*d.T + d.T*d.M
			b.ReportMetric(naiveMS, "naive-ms/op")
			b.ReportMetric(naiveMS/sharedMS, "speedup")
			b.ReportMetric(float64(winFloats+cands*d.N), "payload-floats")
			b.ReportMetric(float64(cands*(winFloats+d.N)), "naive-payload-floats")
		})
	}
}

// BenchmarkTrainEpoch measures one epoch of data-parallel minibatch training
// on a synthetic scheduler-sized dataset.
func BenchmarkTrainEpoch(b *testing.B) {
	d := nn.Dims{N: 28, T: 5, F: 6, M: 5}
	rng := rand.New(rand.NewSource(7))
	const n = 512
	in := nn.Inputs{
		RH: tensor.New(n, d.F, d.N, d.T),
		LH: tensor.New(n, d.T, d.M),
		RC: tensor.New(n, d.N),
	}
	y := tensor.New(n, d.M)
	for i := range in.RH.Data {
		in.RH.Data[i] = rng.Float64()
	}
	for i := range in.RC.Data {
		in.RC.Data[i] = 1 + rng.Float64()
	}
	for i := range y.Data {
		y.Data[i] = 50 + 10*rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := nn.NewLatencyCNN(rand.New(rand.NewSource(1)), d, 32)
		nn.Train(model, in, y, nn.TrainConfig{Epochs: 1, Batch: 64, QoSMS: 500, Seed: 1})
	}
}

// BenchmarkCNNTrainStep measures one SGD step on a 256-sample batch.
func BenchmarkCNNTrainStep(b *testing.B) {
	d := nn.Dims{N: 28, T: 5, F: 6, M: 5}
	model := nn.NewLatencyCNN(rand.New(rand.NewSource(1)), d, 32)
	in := nn.Inputs{
		RH: tensor.New(256, d.F, d.N, d.T),
		LH: tensor.New(256, d.T, d.M),
		RC: tensor.New(256, d.N),
	}
	y := tensor.New(256, d.M)
	opt := &nn.SGD{LR: 0.01, Momentum: 0.9}
	loss := nn.ScaledMSE{Knee: 5, Alpha: 1}
	ctx := nn.NewContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Reset()
		pred := model.Forward(ctx, in)
		_, grad := loss.Compute(pred, y)
		model.Backward(ctx, grad)
		ctx.FlushGrads(model.Params())
		opt.Step(model.Params())
	}
}

// BenchmarkBoostTrain measures boosted-tree training at the shape and
// config core.TrainHybrid hands it on the benchmark's set-up dataset: 1071
// rows × 88 features (a third of them on a 0.1 grid, as allocations are),
// 200 trees of depth 5, early stopping after 25 rounds on a 119-row
// validation split.
func BenchmarkBoostTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gen := func(n int) ([][]float64, []bool) {
		X, y := make([][]float64, n), make([]bool, n)
		for i := range X {
			x := make([]float64, 88)
			for f := range x {
				x[f] = rng.NormFloat64()
				if f%3 == 1 {
					x[f] = float64(rng.Intn(40)) / 10
				}
			}
			X[i], y[i] = x, x[0]+0.5*x[1]+rng.NormFloat64() > 1.5
		}
		return X, y
	}
	X, y := gen(1071)
	vX, vy := gen(119)
	cfg := boost.Config{NumTrees: 200, MaxDepth: 5, EarlyStopping: 25, PosWeight: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := boost.Train(X, y, cfg, vX, vy); m.NumTrees() == 0 {
			b.Fatal("no trees kept")
		}
	}
}

// BenchmarkSinanManagedSecond measures the end-to-end cost of one managed
// simulated second under Sinan (simulation + candidate enumeration +
// batched CNN + BT filtering) on the social network at 200 users.
func BenchmarkSinanManagedSecond(b *testing.B) {
	l := sharedLab()
	m, _ := l.SocialModel()
	app := apps.NewSocialNetwork()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := core.NewScheduler(app, m, core.SchedulerOptions{})
		Manage(app, sched, RunOptions{Load: Constant(200), Duration: 10, Seed: int64(i)})
	}
	b.ReportMetric(10, "simsec/op")
}

// BenchmarkSuiteSpeedup measures the wall-clock benefit of the parallel
// suite executor: the same eight-run suite executed with one worker and
// with GOMAXPROCS workers. Besides the reported metric it prints one
// machine-readable JSON line per iteration, so CI logs can be scraped for
// the measured speedup. On a single-CPU host the honest result is ~1x.
func BenchmarkSuiteSpeedup(b *testing.B) {
	l := sharedLab()
	m, _ := l.HotelModel()
	app := apps.NewHotelReservation()
	mkSuite := func() Suite {
		var specs []RunSpec
		for i, load := range []float64{1000, 1400, 1800, 2200, 2600, 3000, 3400, 3700} {
			specs = append(specs, RunSpec{
				Name: fmt.Sprintf("load-%d", int(load)), App: app,
				Policy:  SchedulerFactory(app, m),
				Pattern: Constant(load), Duration: 40, Seed: int64(100 + i), Warmup: 10,
			})
		}
		return Suite{Name: "speedup", BaseSeed: 1, Specs: specs}
	}
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s0 := time.Now()
		RunSuite(mkSuite(), 1)
		serial := time.Since(s0)
		p0 := time.Now()
		RunSuite(mkSuite(), workers)
		par := time.Since(p0)
		speedup := serial.Seconds() / par.Seconds()
		b.ReportMetric(speedup, "speedup")
		fmt.Printf("{\"bench\":\"suite_speedup\",\"workers\":%d,\"serial_ms\":%.1f,\"parallel_ms\":%.1f,\"speedup\":%.2f}\n",
			workers, float64(serial.Microseconds())/1000, float64(par.Microseconds())/1000, speedup)
	}
}

// BenchmarkAutoscaleManagedSecond is the baseline-policy counterpart of
// BenchmarkSinanManagedSecond (no model in the loop).
func BenchmarkAutoscaleManagedSecond(b *testing.B) {
	app := apps.NewHotelReservation()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Manage(app, AutoScaleCons(), RunOptions{Load: Constant(1000), Duration: 10, Seed: int64(i)})
	}
	b.ReportMetric(10, "simsec/op")
}
