package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sinan/internal/tensor"
	"sinan/internal/wire"
)

var testDims = Dims{N: 6, T: 5, F: 4, M: 5}

// synthInputs builds a synthetic dataset where the next-interval latency is
// a smooth nonlinear function of resource usage vs. allocation, so models
// can genuinely learn it.
func synthInputs(rng *rand.Rand, n int, d Dims) (Inputs, *tensor.Dense) {
	in := Inputs{
		RH: tensor.New(n, d.F, d.N, d.T),
		LH: tensor.New(n, d.T, d.M),
		RC: tensor.New(n, d.N),
	}
	y := tensor.New(n, d.M)
	for i := 0; i < n; i++ {
		load := 0.2 + 0.8*rng.Float64()
		for f := 0; f < d.F; f++ {
			for tier := 0; tier < d.N; tier++ {
				for t := 0; t < d.T; t++ {
					in.RH.Data[((i*d.F+f)*d.N+tier)*d.T+t] = load*float64(f+1) + 0.1*rng.NormFloat64()
				}
			}
		}
		alloc := 0.0
		for tier := 0; tier < d.N; tier++ {
			a := 0.2 + 3*rng.Float64()
			in.RC.Data[i*d.N+tier] = a
			alloc += a
		}
		// Latency grows when load outpaces allocation.
		base := 20 + 400*math.Max(0, load*8-alloc*0.8)
		for t := 0; t < d.T; t++ {
			for m := 0; m < d.M; m++ {
				in.LH.Data[(i*d.T+t)*d.M+m] = base * (0.8 + 0.05*float64(m))
			}
		}
		for m := 0; m < d.M; m++ {
			y.Data[i*d.M+m] = base * (0.85 + 0.05*float64(m)) * (1 + 0.05*rng.NormFloat64())
		}
	}
	return in, y
}

func TestLatencyCNNShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewLatencyCNN(rng, testDims, 32)
	in, _ := synthInputs(rng, 3, testDims)
	ctx := NewContext()
	out := m.Forward(ctx, in)
	if out.Shape[0] != 3 || out.Shape[1] != testDims.M {
		t.Fatalf("cnn output shape %v", out.Shape)
	}
	if lf := ctx.Latent; lf.Shape[0] != 3 || lf.Shape[1] != 32 {
		t.Fatalf("latent shape %v", lf.Shape)
	}
}

func TestCheckInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in, _ := synthInputs(rng, 2, testDims)
	if err := checkInputs(in, testDims); err != nil {
		t.Fatal(err)
	}
	bad := testDims
	bad.N = 7
	if err := checkInputs(in, bad); err == nil {
		t.Fatal("mismatched dims should fail validation")
	}
}

func TestAllRegressorsTrainOnSynthetic(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	in, y := synthInputs(rng, 800, testDims)
	vin, vy := synthInputs(rand.New(rand.NewSource(99)), 200, testDims)

	// Baseline: predicting the mean target everywhere.
	mean := 0.0
	for _, v := range y.Data {
		mean += v
	}
	mean /= float64(len(y.Data))
	baseline := 0.0
	for _, v := range vy.Data {
		baseline += (v - mean) * (v - mean)
	}
	baseline = math.Sqrt(baseline / float64(len(vy.Data)))

	cfg := TrainConfig{Epochs: 30, Batch: 64, LR: 0.02, QoSMS: 500, Seed: 7}
	for _, tc := range []struct {
		name  string
		model Regressor
	}{
		{"cnn", NewLatencyCNN(rand.New(rand.NewSource(10)), testDims, 16)},
		{"mlp", NewMLP(rand.New(rand.NewSource(11)), testDims)},
		{"lstm", NewLSTMModel(rand.New(rand.NewSource(12)), testDims)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tm := Train(tc.model, in, y, cfg)
			rmse := tm.RMSE(vin, vy)
			if rmse >= baseline*0.7 {
				t.Fatalf("%s validation RMSE %.1f not better than 0.7×baseline %.1f", tc.name, rmse, baseline)
			}
		})
	}
}

func TestFineTuneImprovesOnShiftedData(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	in, y := synthInputs(rng, 600, testDims)
	tm := Train(NewLatencyCNN(rand.New(rand.NewSource(5)), testDims, 16), in, y,
		TrainConfig{Epochs: 20, Batch: 64, LR: 0.02, QoSMS: 500, Seed: 8})

	// Shifted regime: latencies systematically 1.4× higher.
	sin, sy := synthInputs(rand.New(rand.NewSource(6)), 300, testDims)
	for i := range sy.Data {
		sy.Data[i] *= 1.4
	}
	before := tm.RMSE(sin, sy)
	tm.FineTune(sin, sy, TrainConfig{Epochs: 15, Batch: 64, LR: 0.002, QoSMS: 500, Seed: 9})
	after := tm.RMSE(sin, sy)
	if after >= before {
		t.Fatalf("fine-tuning did not improve shifted RMSE: %.1f → %.1f", before, after)
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in, _ := synthInputs(rng, 100, testDims)
	norm := FitNormalizer(in, testDims)
	var out Inputs
	norm.ApplyInto(&out, in, testDims)
	// Channel 0 of RH should be ~zero-mean, unit variance.
	per := testDims.N * testDims.T
	sum, sumsq, cnt := 0.0, 0.0, 0
	for i := 0; i < 100; i++ {
		base := i * testDims.F * per
		for j := 0; j < per; j++ {
			v := out.RH.Data[base+j]
			sum += v
			sumsq += v * v
			cnt++
		}
	}
	mean := sum / float64(cnt)
	variance := sumsq/float64(cnt) - mean*mean
	if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-6 {
		t.Fatalf("normalised channel stats mean=%v var=%v", mean, variance)
	}
	// Original inputs untouched.
	if in.RH.Data[0] == out.RH.Data[0] && in.RH.Data[1] == out.RH.Data[1] {
		t.Fatal("ApplyInto a fresh dst should not normalise in place")
	}
}

func TestMultiTaskNN(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMultiTaskNN(rng, testDims, 16, 5)
	in, _ := synthInputs(rng, 4, testDims)
	ctx := NewContext()
	lat, logits := m.Forward(ctx, in)
	if lat.Shape[1] != testDims.M || logits.Shape[1] != 5 {
		t.Fatalf("multitask shapes: %v %v", lat.Shape, logits.Shape)
	}
	// Backward runs without shape errors and fills gradients.
	dlat := tensor.New(lat.Shape...)
	fill(dlat, 1)
	dlog := tensor.New(logits.Shape...)
	fill(dlog, 1)
	m.Backward(ctx, dlat, dlog)
	ctx.FlushGrads(m.Params())
	nonzero := false
	for _, p := range m.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("multitask backward produced no gradients")
	}
}

// Layers overwrite their input in Forward and their gradient in Backward,
// but only tape storage: Forward + Backward of every model leaves the
// caller's Inputs and the output gradients it handed in as they were, and
// the latent Lf Forward left in ctx.Latent is still there after Backward.
func TestModelsLeaveCallerTensorsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	const b, k = 7, 3
	in, _ := synthInputs(rng, b, testDims)
	random := func(shape ...int) *tensor.Dense {
		x := tensor.New(shape...)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		return x
	}
	dpred, dlogits := random(b, testDims.M), random(b, k)
	type model struct {
		name     string
		latent   bool // Forward stores Lf in ctx.Latent
		forward  func(*Context)
		backward func(*Context)
		grads    []*tensor.Dense
	}
	regressor := func(name string, m Regressor) model {
		_, latent := m.(*LatencyCNN)
		return model{name, latent,
			func(ctx *Context) { m.Forward(ctx, in) },
			func(ctx *Context) { m.Backward(ctx, dpred) },
			[]*tensor.Dense{dpred}}
	}
	mt := NewMultiTaskNN(rng, testDims, 16, k)
	for _, m := range []model{
		regressor("LatencyCNN", NewLatencyCNN(rng, testDims, 16)),
		regressor("MLP", NewMLP(rng, testDims)),
		regressor("LSTMModel", NewLSTMModel(rng, testDims)),
		{"MultiTaskNN", true,
			func(ctx *Context) { mt.Forward(ctx, in) },
			func(ctx *Context) { mt.Backward(ctx, dpred, dlogits) },
			[]*tensor.Dense{dpred, dlogits}},
	} {
		caller := append([]*tensor.Dense{in.RH, in.LH, in.RC}, m.grads...)
		var want []*tensor.Dense
		for _, x := range caller {
			want = append(want, x.Clone())
		}
		ctx := NewContext()
		m.forward(ctx)
		if m.latent {
			want, caller = append(want, ctx.Latent.Clone()), append(caller, ctx.Latent)
		}
		m.backward(ctx)
		for i, x := range caller {
			for j, v := range want[i].Data {
				if math.Float64bits(x.Data[j]) != math.Float64bits(v) {
					t.Fatalf("%s: tensor %d of RH, LH, RC, the gradients and Lf changed at %d: %v, was %v", m.name, i, j, x.Data[j], v)
				}
			}
		}
	}
}

// tapeBytes is the storage a context's frames own: workspaces, ReLU masks,
// float scratch and LSTM step caches. A view owns nothing.
func tapeBytes(ctx *Context) int {
	n := 0
	dense := func(d *tensor.Dense) {
		if d != nil {
			n += 8 * cap(d.Data)
		}
	}
	for _, f := range ctx.frames {
		for _, b := range f.bufs {
			dense(b)
		}
		n += cap(f.mask)
		for _, s := range f.f64 {
			n += 8 * cap(s)
		}
		for _, st := range f.steps {
			dense(st.concat)
			dense(st.z)
			for _, s := range [][]float64{st.i, st.f, st.g, st.o, st.c, st.tanhC, st.cPrev} {
				n += 8 * cap(s)
			}
		}
	}
	return n
}

// One 64-row training step of the SocialNetwork-sized CNN (28 tiers, 5
// steps, 6 channels, 5 percentiles, latent 32) leaves a 2.4 MB tape: the
// outputs of conv1 and conv2 (rectified in place, each read by the next
// layer's Backward), rh.fc's dx (over which the ReLU behind it and conv2
// write their gradients), two patch scratches and dcols, and the masks. A
// forward-only context holds 1.4 MB. While ReLU copied its input and its
// gradient and conv2 had a dx of its own they were 5.2 and 2.6 MB; the
// guards, 2.6 and 1.6 MB, sit between.
func TestTapeFootprint(t *testing.T) {
	d := Dims{N: 28, T: 5, F: 6, M: 5}
	const b, mb = 64, 1 << 20
	rng := rand.New(rand.NewSource(83))
	in, _ := synthInputs(rng, b, d)
	m := NewLatencyCNN(rng, d, 32)
	grad := tensor.New(b, d.M)
	fill(grad, 0.01)
	step, fwd := NewContext(), NewContext()
	m.Forward(step, in)
	m.Backward(step, grad)
	m.Forward(fwd, in)
	stepMB, fwdMB := float64(tapeBytes(step))/mb, float64(tapeBytes(fwd))/mb
	t.Logf("64-row tape: %.2f MB after a training step, %.2f MB forward only", stepMB, fwdMB)
	if stepMB > 2.6 {
		t.Errorf("a training step's tape is %.2f MB, want at most 2.6", stepMB)
	}
	if fwdMB > 1.6 {
		t.Errorf("a forward-only tape is %.2f MB, want at most 1.6", fwdMB)
	}
}

// encoded is what AppendModel writes for tm.
func encoded(t testing.TB, tm *TrainedModel) []byte {
	b, err := AppendModel(nil, tm)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Every kind survives AppendModel → ReadModel with bit-identical
// predictions, a second encoding writes the same bytes (the encoding is a
// function of the model), and so does the decoded model's.
func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in, y := synthInputs(rng, 200, testDims)
	for _, model := range []Regressor{
		NewLatencyCNN(rand.New(rand.NewSource(20)), testDims, 16),
		NewMLP(rand.New(rand.NewSource(21)), testDims),
		NewLSTMModel(rand.New(rand.NewSource(22)), testDims),
	} {
		tm := Train(model, in, y, TrainConfig{Epochs: 2, Batch: 64, QoSMS: 500, Seed: 1})
		b := encoded(t, tm)
		if again := encoded(t, tm); !bytes.Equal(again, b) {
			t.Fatalf("%T: two encodings of one model differ", model)
		}
		r := wire.NewReader(b)
		loaded, err := ReadModel(r)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != 0 {
			t.Fatalf("%T: ReadModel left %d bytes", model, r.Len())
		}
		if !bytes.Equal(encoded(t, loaded), b) {
			t.Fatalf("%T: the decoded model encodes to other bytes", model)
		}
		want, _ := tm.PredictWithLatent(in)
		got, _ := loaded.PredictWithLatent(in)
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("loaded model diverges at %d: %v vs %v", i, got.Data[i], want.Data[i])
			}
		}
	}
}

// Saving one model twice writes the same bytes: nothing but the model, such
// as a map's iteration order, may decide them.
func TestSaveTwiceWritesIdenticalBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in, y := synthInputs(rng, 50, testDims)
	tm := Train(NewLatencyCNN(rand.New(rand.NewSource(20)), testDims, 16), in, y,
		TrainConfig{Epochs: 1, Batch: 64, QoSMS: 500, Seed: 1})
	first := encoded(t, tm)
	for i := 0; i < 20; i++ {
		if !bytes.Equal(encoded(t, tm), first) {
			t.Fatalf("save %d differs from the first", i+2)
		}
	}
}

// The header with the largest in-range dims and no weights after it is
// refused before a model is built from it: the bytes its dims imply are
// checked against the bytes left, so a short input cannot make ReadModel
// allocate what a model of those dims holds (302 MB at N = T = 256 alone).
func TestLoadLargestHeaderAllocatesLittle(t *testing.T) {
	for _, s := range []spec{{"cnn", Dims{MaxDim, MaxDim, MaxDim, MaxDim}, MaxDim}, {"mlp", Dims{MaxDim, MaxDim, MaxDim, MaxDim}, 0}, {"lstm", Dims{MaxDim, MaxDim, MaxDim, MaxDim}, 0}} {
		b := wire.AppendString(nil, s.kind)
		for _, v := range []int{s.d.N, s.d.T, s.d.F, s.d.M, s.latent} {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		b = wire.AppendF64(b, make([]float64, 2*MaxDim+4)...) // a whole normaliser
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadModel(wire.NewReader(b))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a header without weights decoded", s.kind)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d-byte header refused with %d bytes allocated: %v", s.kind, len(b), got, err)
		if got >= 1<<20 {
			t.Errorf("%s: refusing a %d-byte header allocated %d bytes", s.kind, len(b), got)
		}
	}
}

// weights, which ReadModel checks the bytes left against, is the number of
// floats the constructors' Params() hold, for every kind.
func TestWeightsMatchesModels(t *testing.T) {
	for _, d := range []Dims{testDims, {N: 28, T: 5, F: 6, M: 5}, {N: 1, T: 1, F: 1, M: 1}, {N: 3, T: 7, F: 2, M: 4}} {
		for _, s := range []spec{{"cnn", d, 7}, {"mlp", d, 0}, {"lstm", d, 0}} {
			n := 0
			for _, p := range s.build().Params() {
				n += len(p.W.Data)
			}
			if w := s.weights(); w != n {
				t.Errorf("%s %+v: weights() = %d, Params() hold %d", s.kind, d, w, n)
			}
		}
	}
}

// A clone predicts what its original does and shares no weights with it.
func TestCloneCopiesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in, y := synthInputs(rng, 50, testDims)
	tm := Train(NewLatencyCNN(rand.New(rand.NewSource(20)), testDims, 16), in, y,
		TrainConfig{Epochs: 1, Batch: 64, QoSMS: 500, Seed: 1})
	c := tm.Clone()
	if !bytes.Equal(encoded(t, c), encoded(t, tm)) {
		t.Fatal("the clone encodes to other bytes")
	}
	c.Model.Params()[0].W.Data[0]++
	c.Norm.RHMean[0]++
	if bytes.Equal(encoded(t, c), encoded(t, tm)) {
		t.Fatal("the clone shares weights or the normaliser with its original")
	}
}

func TestPredictWithLatentMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in, y := synthInputs(rng, 100, testDims)
	tm := Train(NewLatencyCNN(rand.New(rand.NewSource(23)), testDims, 16), in, y,
		TrainConfig{Epochs: 2, Batch: 64, QoSMS: 500, Seed: 2})
	ctx := NewContext()
	tm.PredictSharedCtx(ctx, SharedInputs(in)) // a warmed context answers the same
	p1, _ := tm.PredictSharedCtx(ctx, SharedInputs(in))
	p2, latent := tm.PredictWithLatent(in)
	for i := range p1.Data {
		if p1.Data[i] != p2.Data[i] {
			t.Fatal("PredictWithLatent diverges from PredictSharedCtx")
		}
	}
	if latent == nil || latent.Shape[1] != 16 {
		t.Fatalf("latent missing or wrong width: %v", latent)
	}
	// MLP has no latent.
	tmMLP := Train(NewMLP(rand.New(rand.NewSource(24)), testDims), in, y,
		TrainConfig{Epochs: 1, Batch: 64, QoSMS: 500, Seed: 3})
	_, lat := tmMLP.PredictWithLatent(in)
	if lat != nil {
		t.Fatal("MLP should have nil latent")
	}
}

func TestInputsSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in, _ := synthInputs(rng, 10, testDims)
	var sub Inputs
	in.GatherInto(&sub, []int{3, 7})
	if sub.Batch() != 2 {
		t.Fatalf("slice batch %d", sub.Batch())
	}
	rhRow := in.RH.Size() / 10
	for j := 0; j < rhRow; j++ {
		if sub.RH.Data[j] != in.RH.Data[3*rhRow+j] {
			t.Fatal("slice row 0 should be sample 3")
		}
		if sub.RH.Data[rhRow+j] != in.RH.Data[7*rhRow+j] {
			t.Fatal("slice row 1 should be sample 7")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := ReadModel(wire.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("corrupt stream should fail to load")
	}
}

func TestSaveRejectsUnknownModel(t *testing.T) {
	tm := &TrainedModel{Model: unknownModel{}, Norm: &Normalizer{}}
	if _, err := AppendModel(nil, tm); err == nil {
		t.Fatal("unknown model type should not serialize")
	}
}

type unknownModel struct{}

func (unknownModel) Forward(ctx *Context, in Inputs) *tensor.Dense { return nil }
func (unknownModel) Backward(ctx *Context, d *tensor.Dense)        {}
func (unknownModel) Params() []*Param                              { return nil }
func (unknownModel) Dims() Dims                                    { return Dims{} }

func TestTrainRejectsMismatchedDims(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	model := NewLatencyCNN(rng, Dims{N: 3, T: 2, F: 2, M: 5}, 8)
	in, y := synthInputs(rng, 10, testDims) // wrong dims
	defer func() {
		if recover() == nil {
			t.Fatal("training with mismatched dims should panic")
		}
	}()
	Train(model, in, y, TrainConfig{Epochs: 1})
}

func TestModelParamCountsOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d := Dims{N: 28, T: 5, F: 6, M: 5} // social-sized
	cnn := NumParams(NewLatencyCNN(rand.New(rand.NewSource(1)), d, 32).Params())
	mlp := NumParams(NewMLP(rand.New(rand.NewSource(2)), d).Params())
	lstm := NumParams(NewLSTMModel(rand.New(rand.NewSource(3)), d).Params())
	// Table 2 ordering: the CNN is the smallest model, the MLP the largest.
	if !(cnn < lstm && lstm < mlp) {
		t.Fatalf("param ordering cnn=%d lstm=%d mlp=%d, want cnn < lstm < mlp", cnn, lstm, mlp)
	}
	_ = rng
}

// fill sets every element of t to v.
func fill(t *tensor.Dense, v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}
