package nn

import (
	"math/rand"
	"testing"

	"sinan/internal/tensor"
)

// sharedCase builds one decision interval's deduplicated batch: a single
// history window plus b distinct allocation rows.
func sharedCase(rng *rand.Rand, b int, d Dims) SharedInputs {
	in := SharedInputs{
		RH: tensor.New(1, d.F, d.N, d.T),
		LH: tensor.New(1, d.T, d.M),
		RC: tensor.New(b, d.N),
	}
	for i := range in.RH.Data {
		in.RH.Data[i] = rng.NormFloat64()
	}
	for i := range in.LH.Data {
		in.LH.Data[i] = 100 * rng.Float64()
	}
	for i := range in.RC.Data {
		in.RC.Data[i] = 0.2 + 3*rng.Float64()
	}
	return in
}

// TestPredictSharedBitIdentical pins the tentpole contract: running the
// trunk once and broadcasting is not "close to" evaluating B identical
// history rows — it is the same float64 sequence, bit for bit, for both
// the latency predictions and the latent features the violation classifier
// consumes. Any tolerance here would let the shared path drift from what
// training and the full-batch path compute.
func TestPredictSharedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trainIn, y := synthInputs(rng, 64, testDims)
	tm := Train(NewLatencyCNN(rand.New(rand.NewSource(8)), testDims, 16), trainIn, y,
		TrainConfig{Epochs: 2, Batch: 16, QoSMS: 200, Seed: 1})

	for _, b := range []int{1, 2, 7, 33} {
		in := sharedCase(rng, b, testDims)
		var full Inputs
		in.Expand(&full)
		wantPred, wantLat := tm.PredictWithLatent(full)

		gotPred, gotLat := tm.PredictSharedCtx(NewContext(), in)
		if gotPred.Shape[0] != b || gotPred.Shape[1] != testDims.M {
			t.Fatalf("b=%d: shared pred shape %v", b, gotPred.Shape)
		}
		for i := range wantPred.Data {
			if gotPred.Data[i] != wantPred.Data[i] {
				t.Fatalf("b=%d: pred[%d] shared %v != full %v", b, i, gotPred.Data[i], wantPred.Data[i])
			}
		}
		if gotLat.Shape[0] != b || gotLat.Shape[1] != wantLat.Shape[1] {
			t.Fatalf("b=%d: shared latent shape %v, full %v", b, gotLat.Shape, wantLat.Shape)
		}
		for i := range wantLat.Data {
			if gotLat.Data[i] != wantLat.Data[i] {
				t.Fatalf("b=%d: latent[%d] shared %v != full %v", b, i, gotLat.Data[i], wantLat.Data[i])
			}
		}
	}
}

// TestPredictSharedContextReuse runs the shared path repeatedly on one
// context with varying batch sizes: buffer reuse across calls must never
// leak one batch's activations into the next.
func TestPredictSharedContextReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	trainIn, y := synthInputs(rng, 48, testDims)
	tm := Train(NewLatencyCNN(rand.New(rand.NewSource(10)), testDims, 16), trainIn, y,
		TrainConfig{Epochs: 1, Batch: 16, QoSMS: 200, Seed: 1})

	ctx := NewContext()
	for _, b := range []int{5, 1, 9, 3, 9} {
		in := sharedCase(rng, b, testDims)
		var full Inputs
		in.Expand(&full)
		want, _ := tm.PredictWithLatent(full)
		got, _ := tm.PredictSharedCtx(ctx, in)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("b=%d: reused-context pred[%d] = %v, want %v", b, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestPredictSharedFallbackExpands covers regressors without a trunk/head
// split: PredictShared must transparently expand and match the full-batch
// path, so callers never need to know which kind of model they hold.
func TestPredictSharedFallbackExpands(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trainIn, y := synthInputs(rng, 48, testDims)
	tm := Train(NewMLP(rand.New(rand.NewSource(12)), testDims), trainIn, y,
		TrainConfig{Epochs: 1, Batch: 16, QoSMS: 200, Seed: 1})

	if _, ok := tm.Model.(SharedRegressor); ok {
		t.Fatal("MLP unexpectedly implements SharedRegressor; fallback test needs a plain Regressor")
	}
	in := sharedCase(rng, 6, testDims)
	var full Inputs
	in.Expand(&full)
	want := tm.Predict(full)
	got, _ := tm.PredictSharedCtx(NewContext(), in)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("fallback pred[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestPredictSharedRejectsShapes pins the validation: a multi-row history
// window is exactly the redundancy this path exists to eliminate, so it is
// refused loudly rather than silently accepted.
func TestPredictSharedRejectsShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trainIn, y := synthInputs(rng, 32, testDims)
	tm := Train(NewLatencyCNN(rand.New(rand.NewSource(14)), testDims, 8), trainIn, y,
		TrainConfig{Epochs: 1, Batch: 16, QoSMS: 200, Seed: 1})

	bad := sharedCase(rng, 4, testDims)
	bad.RH = tensor.New(2, testDims.F, testDims.N, testDims.T) // batch dim must be 1
	defer func() {
		if recover() == nil {
			t.Fatal("PredictShared accepted a multi-row history window")
		}
	}()
	tm.PredictSharedCtx(NewContext(), bad)
}
