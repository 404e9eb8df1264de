package nn

import (
	"math/rand"
	"strings"
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
		// W = B, one window per row, is the full-batch path itself.
		gotPred, gotLat = tm.PredictSharedCtx(NewContext(), SharedInputs(full))
		for i := range wantPred.Data {
			if gotPred.Data[i] != wantPred.Data[i] {
				t.Fatalf("b=%d: pred[%d] at W = B %v != full %v", b, i, gotPred.Data[i], wantPred.Data[i])
			}
		}
		for i := range wantLat.Data {
			if gotLat.Data[i] != wantLat.Data[i] {
				t.Fatalf("b=%d: latent[%d] at W = B %v != full %v", b, i, gotLat.Data[i], wantLat.Data[i])
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

// TestPredictSharedRejectsShapes pins the validation: W history windows
// must be 1 or B, and RH and LH must carry the same W. Anything else is
// refused loudly rather than read as some other row-to-window mapping. Only
// the CNN has a history trunk to share, so the MLP and LSTM baselines are
// refused at W = 1 and answer at W = B.
func TestPredictSharedRejectsShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trainIn, y := synthInputs(rng, 32, testDims)
	train := func(m Regressor) *TrainedModel {
		return Train(m, trainIn, y, TrainConfig{Epochs: 1, Batch: 16, QoSMS: 200, Seed: 1})
	}
	cnn := train(NewLatencyCNN(rand.New(rand.NewSource(14)), testDims, 8))
	mlp := train(NewMLP(rand.New(rand.NewSource(15)), testDims))
	lstm := train(NewLSTMModel(rand.New(rand.NewSource(16)), testDims))

	d := testDims
	keep := func(in *SharedInputs) {}
	for _, c := range []struct {
		name string
		tm   *TrainedModel
		bad  func(in *SharedInputs)
		want string
	}{
		{"W = 2, B = 3", cnn, func(in *SharedInputs) {
			in.RH, in.LH = tensor.New(2, d.F, d.N, d.T), tensor.New(2, d.T, d.M)
		}, "history windows"},
		{"LH's W 3, RH's 1", cnn, func(in *SharedInputs) { in.LH = tensor.New(3, d.T, d.M) }, "LH shape"},
		{"LH's W 1, RH's 3", cnn, func(in *SharedInputs) { in.RH = tensor.New(3, d.F, d.N, d.T) }, "LH shape"},
		{"MLP at W = 1", mlp, keep, "no history trunk"},
		{"LSTM at W = 1", lstm, keep, "no history trunk"},
	} {
		in := sharedCase(rng, 3, d)
		c.bad(&in)
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: PredictSharedCtx on RH %v, LH %v, RC %v refused with %v, want an error naming %q",
						c.name, in.RH.Shape, in.LH.Shape, in.RC.Shape, err, c.want)
				}
			}()
			c.tm.PredictSharedCtx(NewContext(), in)
		}()
	}
	for _, tm := range []*TrainedModel{mlp, lstm} {
		var full Inputs
		sharedCase(rng, 3, d).Expand(&full)
		if pred, _ := tm.PredictSharedCtx(NewContext(), SharedInputs(full)); pred.Shape[0] != 3 {
			t.Errorf("%T at W = B: prediction shape %v, want 3 rows", tm.Model, pred.Shape)
		}
	}
}
