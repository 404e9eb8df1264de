package nn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"sinan/internal/tensor"
)

// trainTiny fits a small CNN for the shared-instance tests.
func trainTiny(seed int64) (*TrainedModel, Inputs) {
	rng := rand.New(rand.NewSource(seed))
	in, y := synthInputs(rng, 300, testDims)
	tm := Train(NewLatencyCNN(rand.New(rand.NewSource(seed+1)), testDims, 16), in, y,
		TrainConfig{Epochs: 2, Batch: 64, QoSMS: 500, Seed: seed})
	qin, _ := synthInputs(rand.New(rand.NewSource(seed+2)), 40, testDims)
	return tm, qin
}

// One shared TrainedModel instance, queried from many goroutines each with
// its own Context, must produce bit-identical predictions to a serial call.
// Run under -race this also proves the model itself is never written.
func TestSharedModelConcurrentPredictBitIdentical(t *testing.T) {
	tm, qin := trainTiny(31)
	want, _ := tm.PredictWithLatent(qin)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := NewContext()
			for iter := 0; iter < 5; iter++ {
				got, _ := tm.PredictSharedCtx(ctx, SharedInputs(qin))
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Errorf("concurrent prediction diverges at %d: %v vs %v",
							i, got.Data[i], want.Data[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// Sharded minibatch gradients must not depend on the machine: shard count
// and boundaries are a function of the batch size only, and shard results
// are reduced in shard order, so training on one core and on any number of
// cores yields bit-identical weights. At 4 shards, 4 and 8 workers give every
// shard its own tape, 2 and 3 make one tape serve two consecutive shards, and
// 1 makes it serve all four; the last minibatch (8 of 200 samples) has a
// single shard.
func TestTrainShardingMachineIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	in, y := synthInputs(rng, 200, testDims)
	cfg := TrainConfig{Epochs: 2, Batch: 64, QoSMS: 500, Seed: 6}
	train := func(procs int) []*Param {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return Train(NewLatencyCNN(rand.New(rand.NewSource(42)), testDims, 16), in, y, cfg).Model.Params()
	}
	want := train(1)
	for _, procs := range []int{2, 3, 4, 8} {
		sameWeights(t, fmt.Sprintf("GOMAXPROCS %d", procs), train(procs), want)
	}
}

// sameWeights fails t unless got and want hold the same bits in every weight.
func sameWeights(t *testing.T, what string, got, want []*Param) {
	t.Helper()
	for i := range want {
		for j := range want[i].W.Data {
			if got[i].W.Data[j] != want[i].W.Data[j] {
				t.Fatalf("%s: param %s diverges at %d: %v vs %v",
					what, want[i].Name, j, got[i].W.Data[j], want[i].W.Data[j])
			}
		}
	}
}

// Training over a row list reads the caller's tensors in place and
// normalises each gathered minibatch slice; it must give the weights that
// training on a copy of those rows gives, bit for bit. 630 rows at batch 256
// end every epoch on a partial minibatch, cut into 4 shards. FineTune, the
// all-rows case, must likewise match normalising the whole set up front and
// training on it through an identity normaliser — the order of work this
// path replaced.
func TestTrainRowsMatchesCopiedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	in, y := synthInputs(rng, 700, testDims)
	rows := rng.Perm(700)[:630]
	cfg := TrainConfig{Epochs: 2, Batch: 256, QoSMS: 500, Seed: 8}
	model := func() Regressor { return NewLatencyCNN(rand.New(rand.NewSource(47)), testDims, 16) }
	var copied Inputs
	in.GatherInto(&copied, rows)
	got := TrainRows(model(), in, y, rows, cfg)
	want := Train(model(), copied, gatherRows(nil, y, rows), cfg)
	sameWeights(t, "TrainRows", got.Model.Params(), want.Model.Params())

	// Clones on both sides: the momentum left on got's parameters is not
	// part of a clone.
	tuned, ref := got.Clone(), got.Clone()
	ref.Norm = &Normalizer{RHMean: make([]float64, testDims.F), RHStd: make([]float64, testDims.F), LHStd: 1, RCStd: 1}
	for f := range ref.Norm.RHStd {
		ref.Norm.RHStd[f] = 1
	}
	var normed Inputs
	got.Norm.ApplyInto(&normed, in, testDims)
	cfg.LR = 0.002
	ref.FineTune(normed, y, cfg)
	tuned.FineTune(in, y, cfg)
	sameWeights(t, "FineTune", tuned.Model.Params(), ref.Model.Params())
}

// The normaliser fitted over a row list gathers it PredictChunk rows at a
// time and continues each channel's sums from chunk to chunk: it must equal
// the one-pass sums over the rows' copy in list order, bit for bit, for a
// list of one row, exactly one chunk, a chunk and a row, and chunks ending on
// a partial one.
func TestFitNormalizerRowsMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	in, _ := synthInputs(rng, 300, testDims)
	for _, n := range []int{1, PredictChunk, PredictChunk + 1, 270} {
		rows := rng.Perm(300)[:n]
		var copied Inputs
		in.GatherInto(&copied, rows)
		if got, want := fitNormalizerRows(&Inputs{}, in, rows, testDims), onePassNormalizer(copied, testDims); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d rows: normaliser over rows %+v, over their copy in one pass %+v", n, got, want)
		}
	}
}

// onePassNormalizer is the normaliser as fitted before it was chunked: per
// channel, one pass over every sample of in.
func onePassNormalizer(in Inputs, d Dims) *Normalizer {
	meanStd := func(t *tensor.Dense, off, w int) (float64, float64) {
		row := t.Size() / t.Shape[0]
		sum, sumsq := 0.0, 0.0
		for i := 0; i < t.Shape[0]; i++ {
			for _, v := range t.Data[i*row+off : i*row+off+w] {
				sum += v
				sumsq += v * v
			}
		}
		cnt := float64(t.Shape[0] * w)
		mean := sum / cnt
		return mean, floorStd(math.Sqrt(math.Max(sumsq/cnt-mean*mean, 0)))
	}
	n := &Normalizer{RHMean: make([]float64, d.F), RHStd: make([]float64, d.F)}
	per := d.N * d.T
	for f := 0; f < d.F; f++ {
		n.RHMean[f], n.RHStd[f] = meanStd(in.RH, f*per, per)
	}
	n.LHMean, n.LHStd = meanStd(in.LH, 0, d.T*d.M)
	n.RCMean, n.RCStd = meanStd(in.RC, 0, d.N)
	return n
}

// A tape belongs to a worker, not to a shard: after an epoch of 4-shard
// minibatches only the first shard of each ParallelFor range has pushed a
// frame or gathered a row, so 1, 2 and 4 workers grow exactly 1, 2 and 4
// tapes — and every shard, tape or not, has accumulated gradients.
func TestTrainTapesPerWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	in, y := synthInputs(rng, 128, testDims)
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		tm := &TrainedModel{Model: NewLatencyCNN(rand.New(rand.NewSource(44)), testDims, 16), Norm: FitNormalizer(in, testDims)}
		params := tm.Model.Params()
		shards := newTrainShards()
		idx := rng.Perm(128)
		for s := 0; s < len(idx); s += 64 {
			tm.batchGrad(shards, in, y, idx[s:s+64], MSE{}, params)
		}
		runtime.GOMAXPROCS(prev)
		tapes := 0
		for si := range shards {
			sh := &shards[si]
			if len(sh.grads.acc) != len(params) {
				t.Errorf("GOMAXPROCS %d: shard %d holds %d accumulators, want %d", procs, si, len(sh.grads.acc), len(params))
			}
			if (len(sh.ctx.frames) > 0) != (sh.in.RH != nil) {
				t.Errorf("GOMAXPROCS %d: shard %d has a tape without gather buffers or the reverse", procs, si)
			}
			if len(sh.ctx.frames) > 0 {
				tapes++
			}
		}
		if tapes != procs {
			t.Errorf("GOMAXPROCS %d: %d of 4 shard contexts hold frames, want %d", procs, tapes, procs)
		}
	}
}

// Backward adds into whichever accumulator set the context is bound to and
// FlushGrads reduces that same set: binding a set moves where the gradients
// are kept, never whether they arrive.
func TestBoundGradSetReceivesAndFlushes(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	in, _ := synthInputs(rng, 8, testDims)
	model := NewLatencyCNN(rng, testDims, 16)
	grad := tensor.New(8, testDims.M)
	fill(grad, 0.01)
	run := func(bind *gradSet) []*tensor.Dense {
		ctx := NewContext()
		if bind != nil {
			ctx.accumulateInto(bind)
		}
		model.Forward(ctx, in)
		model.Backward(ctx, grad)
		ctx.FlushGrads(model.Params())
		var out []*tensor.Dense
		for _, p := range model.Params() {
			out = append(out, p.Grad.Clone())
			p.Grad.Zero()
		}
		return out
	}
	want := run(nil)
	var gs gradSet
	got := run(&gs)
	if len(gs.acc) != len(model.Params()) {
		t.Fatalf("bound set holds %d accumulators, want %d", len(gs.acc), len(model.Params()))
	}
	nonzero := false
	for i := range want {
		for j, v := range want[i].Data {
			nonzero = nonzero || v != 0
			if got[i].Data[j] != v {
				t.Fatalf("param %d element %d: %v through a bound set, %v through the context's own", i, j, got[i].Data[j], v)
			}
		}
	}
	if !nonzero {
		t.Fatal("every gradient is zero: the test checks nothing")
	}
}

// allocsPerRun is testing.AllocsPerRun at the test's GOMAXPROCS:
// AllocsPerRun sets GOMAXPROCS to 1 while it counts, where nothing forks.
// The count is process-wide, and the runtime's own goroutines allocate after
// a collection (the unique package's map cleanup, new Ms, the scavenger's
// timer). So a collection runs before the window opens, the caller sleeps
// while that work runs, and no collection starts inside the window.
func allocsPerRun(runs int, fn func()) float64 {
	fn()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	time.Sleep(time.Millisecond)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// The steady-state predict path at W = B on a warmed-up context must not
// allocate: every buffer the forward pass touches lives on the Context and
// is reused.
func TestPredictCtxSteadyStateAllocs(t *testing.T) {
	tm, qin := trainTiny(51)
	ctx := NewContext()
	tm.PredictSharedCtx(ctx, SharedInputs(qin))
	allocs := allocsPerRun(20, func() { tm.PredictSharedCtx(ctx, SharedInputs(qin)) })
	if allocs != 0 {
		t.Fatalf("steady-state predict allocates %.0f objects per call, want 0", allocs)
	}
}

// One steady-state training step on a warmed shard — gather and normalise
// the minibatch slice in the shard's buffers, forward, the loss gradient,
// backward — must not allocate at any GOMAXPROCS: the tape, the gradient
// accumulators, the gathered batch and the loss gradient all live on the
// shard and are reused, and no kernel under the shard forks.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	in, y := synthInputs(rng, 96, testDims)
	model := NewLatencyCNN(rng, testDims, 16)
	tm := &TrainedModel{Model: model, Norm: FitNormalizer(in, testDims)}
	sh := trainShard{ctx: NewContext()}
	idx := rng.Perm(96)
	// As TrainRows and fit do once per call: passing in as Rows and the
	// loss as Loss boxes them.
	var src Rows = in
	var loss Loss = ScaledMSE{Knee: 3, Alpha: 1}
	step := func(sidx []int) {
		sh.gather(tm, src, y, sidx)
		pred := model.Forward(sh.ctx, sh.in)
		_, sh.dpred = loss.Compute(sh.dpred, pred, sh.y)
		model.Backward(sh.ctx, sh.dpred)
	}
	step(idx[:32])
	next := 0
	allocs := allocsPerRun(10, func() {
		next = (next + 32) % 96 // a different slice of the data every step
		step(idx[next : next+32])
	})
	if allocs != 0 {
		t.Fatalf("steady-state training step allocates %.0f objects, want 0", allocs)
	}
}

// naiveConvForward computes c's convolution of x with the direct six-loop
// kernel: the definition the im2col+GEMM Forward is checked against.
func naiveConvForward(c *Conv2D, x *tensor.Dense) *tensor.Dense {
	b, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.outDims(h, w)
	y := tensor.New(b, c.Cout, oh, ow)
	kd := c.W.W.Data
	for n := 0; n < b; n++ {
		for co := 0; co < c.Cout; co++ {
			bias := c.B.W.Data[co]
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					s := bias
					for ci := 0; ci < c.Cin; ci++ {
						for ki := 0; ki < c.K; ki++ {
							ii := i + ki - c.Pad
							if ii < 0 || ii >= h {
								continue
							}
							xoff := ((n*c.Cin+ci)*h + ii) * w
							koff := ((co*c.Cin+ci)*c.K + ki) * c.K
							for kj := 0; kj < c.K; kj++ {
								jj := j + kj - c.Pad
								if jj < 0 || jj >= w {
									continue
								}
								s += x.Data[xoff+jj] * kd[koff+kj]
							}
						}
					}
					y.Data[((n*c.Cout+co)*oh+i)*ow+j] = s
				}
			}
		}
	}
	return y
}

// The im2col+GEMM Conv2D forward must agree with the naive six-loop
// reference to floating-point roundoff.
func TestConv2DIm2ColMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, pad := range []int{0, 1, 2} {
		c := NewConv2D(rng, "conv", 3, 5, 3, pad)
		x := tensor.New(2, 3, 6, 4)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		got := c.Forward(NewContext(), x)
		want := naiveConvForward(c, x)
		for i := range want.Data {
			if diff := got.Data[i] - want.Data[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("pad=%d: im2col forward diverges from naive at %d: %v vs %v",
					pad, i, got.Data[i], want.Data[i])
			}
		}
		for i, s := range want.Shape {
			if got.Shape[i] != s {
				t.Fatalf("pad=%d: shape %v, want %v", pad, got.Shape, want.Shape)
			}
		}
	}
}
