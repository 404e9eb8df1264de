package nn

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

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
	want := tm.Predict(qin).Clone()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := NewContext()
			for iter := 0; iter < 5; iter++ {
				got := tm.PredictCtx(ctx, qin)
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
// are reduced in shard order, so training on one core and on all cores
// yields bit-identical weights.
func TestTrainShardingMachineIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	in, y := synthInputs(rng, 200, testDims)
	cfg := TrainConfig{Epochs: 2, Batch: 64, QoSMS: 500, Seed: 6, Shards: 4}

	tmPar := Train(NewLatencyCNN(rand.New(rand.NewSource(42)), testDims, 16), in, y, cfg)

	prev := runtime.GOMAXPROCS(1)
	tmSer := Train(NewLatencyCNN(rand.New(rand.NewSource(42)), testDims, 16), in, y, cfg)
	runtime.GOMAXPROCS(prev)

	pp, sp := tmPar.Model.Params(), tmSer.Model.Params()
	for i := range pp {
		for j := range pp[i].W.Data {
			if pp[i].W.Data[j] != sp[i].W.Data[j] {
				t.Fatalf("param %s diverges at %d: %v vs %v",
					pp[i].Name, j, pp[i].W.Data[j], sp[i].W.Data[j])
			}
		}
	}
}

// The steady-state predict path on a warmed-up context must not allocate:
// every buffer the forward pass touches lives on the Context and is reused.
func TestPredictCtxSteadyStateAllocs(t *testing.T) {
	tm, qin := trainTiny(51)
	// Single-threaded so parallel kernels take their inline path; the guard
	// is about buffer reuse, not goroutine-dispatch overhead.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	ctx := NewContext()
	tm.PredictCtx(ctx, qin)
	allocs := testing.AllocsPerRun(20, func() { tm.PredictCtx(ctx, qin) })
	if allocs > 2 {
		t.Fatalf("steady-state predict allocates %.0f objects per call, want ~0", allocs)
	}
}

// One steady-state training step on a warmed shard — gather the minibatch
// slice into the shard's buffers, forward, backward — must not allocate:
// the tape, the gradient accumulators and the gathered batch all live on
// the shard and are reused. GOMAXPROCS(1) keeps the kernels on their serial
// path; the fan-out's goroutines are not what this guards.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(52))
	in, y := synthInputs(rng, 96, testDims)
	model := NewLatencyCNN(rng, testDims, 16)
	sh := trainShard{ctx: NewContext()}
	grad := tensor.New(32, testDims.M)
	grad.Fill(0.01)
	idx := rng.Perm(96)
	step := func(sidx []int) {
		sh.gather(in, y, sidx)
		model.Forward(sh.ctx, sh.in)
		model.Backward(sh.ctx, grad)
	}
	step(idx[:32])
	next := 0
	allocs := testing.AllocsPerRun(10, func() {
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
