package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sinan/internal/tensor"
)

// numGradCheck verifies dL/dx and dL/dparams for an arbitrary module using
// central finite differences with L = Σ out² / 2 (so dL/dout = out).
func numGradCheck(t *testing.T, layer Layer, x *tensor.Dense, tol float64) {
	t.Helper()
	ctx := NewContext()
	loss := func() float64 {
		ctx.Reset()
		out := layer.Forward(ctx, x.Clone())
		s := 0.0
		for _, v := range out.Data {
			s += v * v / 2
		}
		return s
	}
	// Analytic gradients, flushed from the context into Param.Grad.
	ctx.Reset()
	out := layer.Forward(ctx, x.Clone())
	dx := layer.Backward(ctx, out.Clone(), true)
	ctx.FlushGrads(layer.Params())

	const eps = 1e-5
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("input grad mismatch at %d: analytic %v vs numeric %v", i, dx.Data[i], num)
		}
	}
	for _, p := range layer.Params() {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := loss()
			p.W.Data[i] = orig - eps
			lm := loss()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.Grad.Data[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s grad mismatch at %d: analytic %v vs numeric %v",
					p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestDenseForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, "fc", 2, 1)
	d.W.W.Data[0], d.W.W.Data[1] = 2, 3
	d.B.W.Data[0] = 1
	y := d.Forward(NewContext(), tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	if y.At(0, 0) != 1*2+2*3+1 || y.At(1, 0) != 3*2+4*3+1 {
		t.Fatalf("dense forward = %v", y.Data)
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(rng, "fc", 3, 2)
	x := tensor.New(4, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	numGradCheck(t, d, x, 1e-5)
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	ctx := NewContext()
	y := r.Forward(ctx, tensor.FromSlice([]float64{-1, 2, 0, -3}, 1, 4))
	want := []float64{0, 2, 0, 0}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("relu = %v", y.Data)
		}
	}
	dx := r.Backward(ctx, tensor.FromSlice([]float64{5, 5, 5, 5}, 1, 4), true)
	wantdx := []float64{0, 5, 5, 0} // zero passes gradient (x >= 0 convention)
	for i, v := range wantdx {
		if dx.Data[i] != v {
			t.Fatalf("relu grad = %v", dx.Data)
		}
	}
}

// refReLU is the definition ReLU's select loops replaced, branches and all:
// y = 0 and no gradient where x < 0, y = x and the gradient passed otherwise.
func refReLU(x, dout []float64) (y, dx []float64) {
	y, dx = make([]float64, len(x)), make([]float64, len(x))
	for i, v := range x {
		if v < 0 {
			y[i], dx[i] = 0, 0
		} else {
			y[i], dx[i] = v, dout[i]
		}
	}
	return y, dx
}

// sameStorage reports whether a and b start at the same element of one
// backing array.
func sameStorage(a, b *tensor.Dense) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// ReLU's Forward and Backward return the reference's bits for every kind of
// float64 in either operand: zeros of both signs (−0 is not < 0, so it
// passes through and passes the gradient), infinities, NaNs of both signs
// (not < 0 either), subnormals, and random values. Both work in place:
// Forward returns x's storage and Backward dout's.
func TestReLUMatchesBranchyReferenceBitForBit(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), negNaN,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	rng := rand.New(rand.NewSource(3))
	var xs, douts []float64
	for _, x := range special { // every special input under every special gradient
		for _, d := range special {
			xs, douts = append(xs, x), append(douts, d)
		}
	}
	for i := 0; i < 1000; i++ {
		xs, douts = append(xs, rng.NormFloat64()), append(douts, rng.NormFloat64())
	}
	wantY, wantDX := refReLU(xs, douts)
	r := &ReLU{}
	ctx := NewContext()
	x := tensor.FromSlice(append([]float64(nil), xs...), 1, len(xs))
	dout := tensor.FromSlice(append([]float64(nil), douts...), 1, len(xs))
	y := r.Forward(ctx, x)
	dx := r.Backward(ctx, dout, true)
	if !sameStorage(y, x) || !sameStorage(dx, dout) {
		t.Fatalf("ReLU not in place: y over x %v, dx over dout %v", sameStorage(y, x), sameStorage(dx, dout))
	}
	for i := range xs {
		if got, want := math.Float64bits(y.Data[i]), math.Float64bits(wantY[i]); got != want {
			t.Errorf("Forward(%v) = %v (%#x), reference %v (%#x)", xs[i], y.Data[i], got, wantY[i], want)
		}
		if got, want := math.Float64bits(dx.Data[i]), math.Float64bits(wantDX[i]); got != want {
			t.Errorf("Backward(%v) at x = %v is %v (%#x), reference %v (%#x)", douts[i], xs[i], dx.Data[i], got, wantDX[i], want)
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := &Flatten{}
	ctx := NewContext()
	x := tensor.New(2, 3, 4)
	y := f.Forward(ctx, x)
	if y.Shape[0] != 2 || y.Shape[1] != 12 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	dx := f.Backward(ctx, tensor.New(2, 12), true)
	if len(dx.Shape) != 3 || dx.Shape[2] != 4 {
		t.Fatalf("unflatten shape %v", dx.Shape)
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D(rng, "conv", 1, 1, 3, 1)
	c.W.W.Zero()
	c.W.W.Set(1, 0, 0, 1, 1) // delta kernel: output = input
	c.B.W.Zero()
	x := tensor.New(1, 1, 4, 5)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	y := c.Forward(NewContext(), x)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("identity conv mismatch at %d", i)
		}
	}
}

func TestConv2DShiftKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2D(rng, "conv", 1, 1, 3, 1)
	c.W.W.Zero()
	c.W.W.Set(1, 0, 0, 0, 1) // reads the row above: y[i,j] = x[i-1,j]
	c.B.W.Zero()
	x := tensor.New(1, 1, 3, 3)
	for i := range x.Data {
		x.Data[i] = float64(i + 1)
	}
	y := c.Forward(NewContext(), x)
	if y.At(0, 0, 0, 0) != 0 { // padding row
		t.Fatalf("padded edge should be 0, got %v", y.At(0, 0, 0, 0))
	}
	if y.At(0, 0, 1, 1) != x.At(0, 0, 0, 1) {
		t.Fatal("shift kernel wrong")
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv2D(rng, "conv", 2, 3, 3, 1)
	x := tensor.New(2, 2, 4, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	numGradCheck(t, c, x, 1e-4)
}

// refConv is Conv2D's Forward and Backward as they were while the layer
// unfolded the whole batch at once — one [Cin·K·K, B·OH·OW] patch matrix, one
// product per pass, a scatter into y and a gather out of dout — kept as the
// definition the sample-at-a-time layer must reproduce bit for bit. The
// gradients are added into zeroed accumulators, as a fresh context's are.
func refConv(c *Conv2D, x, dout *tensor.Dense, wantDX bool) (y, gW, gb, dx *tensor.Dense) {
	b, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.outDims(h, w)
	ckk, ohow := c.Cin*c.K*c.K, oh*ow
	cols := tensor.New(ckk, b*ohow)
	tensor.Im2Col(cols, x, c.K, c.Pad)
	ymat := tensor.New(c.Cout, b*ohow)
	tensor.MatMulInto(ymat, c.wmat, cols)
	y = tensor.New(b, c.Cout, oh, ow)
	for n := 0; n < b; n++ {
		for co := 0; co < c.Cout; co++ {
			src := ymat.Data[(co*b+n)*ohow : (co*b+n+1)*ohow]
			dst := y.Data[(n*c.Cout+co)*ohow : (n*c.Cout+co+1)*ohow]
			bias := c.B.W.Data[co]
			for j, v := range src {
				dst[j] = v + bias
			}
		}
	}

	dymat := tensor.New(c.Cout, b*ohow)
	gb = tensor.New(c.Cout)
	for co := 0; co < c.Cout; co++ {
		s := 0.0
		for n := 0; n < b; n++ {
			src := dout.Data[(n*c.Cout+co)*ohow : (n*c.Cout+co+1)*ohow]
			copy(dymat.Data[(co*b+n)*ohow:(co*b+n+1)*ohow], src)
			for _, v := range src {
				s += v
			}
		}
		gb.Data[co] += s
	}
	dW := tensor.New(c.Cout, ckk)
	tensor.MatMulTransBInto(dW, dymat, cols)
	gW = tensor.New(c.W.W.Shape...)
	tensor.AddInPlace(gW, dW)
	if !wantDX {
		return y, gW, gb, nil
	}
	dcols := tensor.New(ckk, b*ohow)
	tensor.MatMulTransAInto(dcols, c.wmat, dymat)
	dx = tensor.New(b, c.Cin, h, w)
	tensor.Col2Im(dx, dcols, c.K, c.Pad)
	return y, gW, gb, dx
}

// Conv2D taken one sample at a time returns the bits of the batch-wide
// products it replaced, in y, dW, db and dx: at SocialNetwork's image (28 × 5,
// OH·OW = 140) and HotelReservation's (17 × 5, OH·OW = 85 — not a multiple of
// four, so every sample hands dW's chains from the vector leaf to its scalar
// tail and back), for both layers' channel counts, for one sample, a few and
// a training shard, with zeros of both signs among inputs, weights and
// gradients, with and without the input gradient, on a context reused from
// the largest batch down. With cin = 8 = cout, dx has dout's size and is
// written over it; with cin = 6 it has its own buffer.
func TestConv2DMatchesBatchWideReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	random := func(shape ...int) *tensor.Dense {
		x := tensor.New(shape...)
		for i := range x.Data {
			switch r := rng.Float64(); {
			case r < 0.1:
				x.Data[i] = 0
			case r < 0.2:
				x.Data[i] = math.Copysign(0, -1)
			default:
				x.Data[i] = rng.NormFloat64()
			}
		}
		return x
	}
	same := func(what string, got, want *tensor.Dense) {
		t.Helper()
		if len(got.Data) != len(want.Data) {
			t.Fatalf("%s: %d elements, reference %d", what, len(got.Data), len(want.Data))
		}
		for i := range want.Data {
			if g, w := math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]); g != w {
				t.Fatalf("%s: element %d is %v (%#x), reference %v (%#x)", what, i, got.Data[i], g, want.Data[i], w)
			}
		}
	}
	for _, h := range []int{28, 17} {
		for _, cin := range []int{6, 8} {
			c := NewConv2D(rng, "conv", cin, 8, 3, 1)
			copy(c.W.W.Data, random(c.W.W.Shape...).Data)
			copy(c.B.W.Data, random(c.B.W.Shape...).Data)
			ctx := NewContext()
			for _, b := range []int{64, 3, 1} {
				for _, wantDX := range []bool{true, false} {
					what := fmt.Sprintf("%dx5 cin=%d B=%d wantDX=%v", h, cin, b, wantDX)
					x, dout := random(b, cin, h, 5), random(b, 8, h, 5)
					wantY, wantW, wantB, wantDx := refConv(c, x, dout, wantDX)
					ctx.Reset()
					same(what+": y", c.Forward(ctx, x), wantY)
					dx := c.Backward(ctx, dout, wantDX)
					same(what+": dW", ctx.Grad(c.W), wantW)
					same(what+": db", ctx.Grad(c.B), wantB)
					if wantDX {
						same(what+": dx", dx, wantDx)
						if over := sameStorage(dx, dout); over != (cin == 8) {
							t.Fatalf("%s: dx written over dout is %v, want %v", what, over, cin == 8)
						}
					} else if dx != nil {
						t.Fatalf("%s: unwanted input gradient returned", what)
					}
					ctx.FlushGrads(c.Params()) // zeroes the accumulators for the next case
				}
			}
		}
	}
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLSTM(rng, "lstm", 3, 4)
	x := tensor.New(2, 3, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 0.5
	}
	numGradCheck(t, l, x, 1e-4)
}

func TestSequentialComposes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seq := &Sequential{Layers: []Layer{
		NewDense(rng, "a", 3, 5), &ReLU{}, NewDense(rng, "b", 5, 2),
	}}
	x := tensor.New(2, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	numGradCheck(t, seq, x, 1e-5)
	if len(seq.Params()) != 4 {
		t.Fatalf("params = %d, want 4", len(seq.Params()))
	}
}

func TestScaleFunction(t *testing.T) {
	const knee, alpha = 100.0, 0.01
	if Scale(50, knee, alpha) != 50 {
		t.Fatal("below knee φ should be identity")
	}
	if math.Abs(Scale(100, knee, alpha)-100) > 1e-12 {
		t.Fatal("φ should be continuous at the knee")
	}
	// Monotone increasing, bounded by knee + 1/alpha.
	prev := 0.0
	for x := 0.0; x < 10000; x += 50 {
		v := Scale(x, knee, alpha)
		if v < prev {
			t.Fatalf("φ not monotone at %v", x)
		}
		if v > knee+1/alpha {
			t.Fatalf("φ(%v) = %v exceeds asymptote %v", x, v, knee+1/alpha)
		}
		prev = v
	}
	// Derivative matches numerically on both sides of the knee.
	for _, x := range []float64{30, 99.9, 100.1, 250, 1000} {
		const eps = 1e-6
		num := (Scale(x+eps, knee, alpha) - Scale(x-eps, knee, alpha)) / (2 * eps)
		if math.Abs(num-ScaleDeriv(x, knee, alpha)) > 1e-5 {
			t.Fatalf("φ' mismatch at %v", x)
		}
	}
}

func TestMSELoss(t *testing.T) {
	pred := tensor.FromSlice([]float64{1, 2}, 1, 2)
	truth := tensor.FromSlice([]float64{0, 4}, 1, 2)
	loss, grad := MSE{}.Compute(pred, truth)
	if math.Abs(loss-(1+4)/2.0) > 1e-12 {
		t.Fatalf("mse = %v", loss)
	}
	if math.Abs(grad.Data[0]-1) > 1e-12 || math.Abs(grad.Data[1]-(-2)) > 1e-12 {
		t.Fatalf("mse grad = %v", grad.Data)
	}
}

func TestScaledMSEGradNumeric(t *testing.T) {
	l := ScaledMSE{Knee: 100, Alpha: 0.01}
	truth := tensor.FromSlice([]float64{80, 300}, 1, 2)
	pred := tensor.FromSlice([]float64{120, 90}, 1, 2)
	_, grad := l.Compute(pred, truth)
	const eps = 1e-5
	for i := range pred.Data {
		orig := pred.Data[i]
		pred.Data[i] = orig + eps
		lp, _ := l.Compute(pred, truth)
		pred.Data[i] = orig - eps
		lm, _ := l.Compute(pred, truth)
		pred.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > 1e-6 {
			t.Fatalf("scaled mse grad mismatch at %d: %v vs %v", i, grad.Data[i], num)
		}
	}
}

func TestScaledMSEDampensSpikes(t *testing.T) {
	l := ScaledMSE{Knee: 100, Alpha: 0.01}
	pred := tensor.FromSlice([]float64{100}, 1, 1)
	spiky := tensor.FromSlice([]float64{5000}, 1, 1)
	mild := tensor.FromSlice([]float64{200}, 1, 1)
	lossSpiky, _ := l.Compute(pred, spiky)
	lossMild, _ := l.Compute(pred, mild)
	plainSpiky, _ := MSE{}.Compute(pred, spiky)
	if lossSpiky >= plainSpiky {
		t.Fatal("φ-scaling should dampen spike loss versus plain MSE")
	}
	if lossSpiky > 100*lossMild {
		t.Fatal("spike loss should be bounded")
	}
}

func TestBCEWithLogits(t *testing.T) {
	pred := tensor.FromSlice([]float64{0}, 1, 1)
	truth := tensor.FromSlice([]float64{1}, 1, 1)
	loss, grad := BCEWithLogits{}.Compute(pred, truth)
	if math.Abs(loss-math.Log(2)) > 1e-9 {
		t.Fatalf("bce(0,1) = %v, want ln2", loss)
	}
	if math.Abs(grad.Data[0]-(-0.5)) > 1e-9 {
		t.Fatalf("bce grad = %v, want -0.5", grad.Data[0])
	}
	// Large positive logit with label 1: near-zero loss.
	pred.Data[0] = 20
	loss, _ = BCEWithLogits{}.Compute(pred, truth)
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction loss = %v", loss)
	}
}

func TestSGDStep(t *testing.T) {
	p := newParam("w", 1)
	p.W.Data[0] = 1
	p.Grad.Data[0] = 0.5
	opt := &SGD{LR: 0.1}
	opt.Step([]*Param{p})
	if math.Abs(p.W.Data[0]-0.95) > 1e-12 {
		t.Fatalf("sgd step: %v", p.W.Data[0])
	}
	if p.Grad.Data[0] != 0 {
		t.Fatal("grad should be zeroed after step")
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := newParam("w", 1)
	opt := &SGD{LR: 0.1, Momentum: 0.9}
	for i := 0; i < 3; i++ {
		p.Grad.Data[0] = 1
		opt.Step([]*Param{p})
	}
	// v1=-0.1, v2=-0.19, v3=-0.271 → w = -0.561
	if math.Abs(p.W.Data[0]-(-0.561)) > 1e-9 {
		t.Fatalf("momentum trajectory wrong: %v", p.W.Data[0])
	}
}

func TestClipGrads(t *testing.T) {
	p := newParam("w", 2)
	p.Grad.Data[0], p.Grad.Data[1] = 3, 4 // norm 5
	ClipGrads([]*Param{p}, 1)
	norm := math.Hypot(p.Grad.Data[0], p.Grad.Data[1])
	if math.Abs(norm-1) > 1e-12 {
		t.Fatalf("clipped norm = %v", norm)
	}
	ClipGrads([]*Param{p}, 10) // under limit: no-op
	if math.Abs(math.Hypot(p.Grad.Data[0], p.Grad.Data[1])-1) > 1e-12 {
		t.Fatal("clip below limit should not rescale")
	}
}

func TestModelSizeKB(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewDense(rng, "fc", 256, 256)
	kb := ModelSizeKB(d.Params())
	want := float64(256*256+256) * 4 / 1024
	if math.Abs(kb-want) > 1e-9 {
		t.Fatalf("size = %v, want %v", kb, want)
	}
}

// A tiny end-to-end training sanity check: an MLP fits y = x1 + 2*x2.
func TestMLPLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := &Sequential{Layers: []Layer{
		NewDense(rng, "a", 2, 16), &ReLU{}, NewDense(rng, "b", 16, 1),
	}}
	opt := &SGD{LR: 0.01, Momentum: 0.9}
	x := tensor.New(64, 2)
	y := tensor.New(64, 1)
	ctx := NewContext()
	for epoch := 0; epoch < 300; epoch++ {
		for i := 0; i < 64; i++ {
			a, b := rng.Float64(), rng.Float64()
			x.Data[2*i], x.Data[2*i+1] = a, b
			y.Data[i] = a + 2*b
		}
		ctx.Reset()
		pred := net.Forward(ctx, x)
		_, grad := MSE{}.Compute(pred, y)
		net.Backward(ctx, grad, false)
		ctx.FlushGrads(net.Params())
		opt.Step(net.Params())
	}
	ctx.Reset()
	pred := net.Forward(ctx, tensor.FromSlice([]float64{0.3, 0.4}, 1, 2))
	if math.Abs(pred.Data[0]-1.1) > 0.05 {
		t.Fatalf("MLP failed to fit linear target: got %v, want 1.1", pred.Data[0])
	}
}

// TestBackwardWithoutInputGradMatches: the "input gradient wanted" bit is
// invisible in the parameter gradients. Every data-fed part of the three
// models, and a bare conv stack, is run forward and backward once with its
// first layer's dx wanted and once without: the not-wanted call returns nil
// and leaves the same bits in every ctx.Grad(p). Backward may write over its
// dout, so each call gets a copy. In lhEnc = {Flatten, Dense, ReLU} nothing
// reads lh.fc's dx when the chain's is not wanted, so its frame sizes none.
func TestBackwardWithoutInputGradMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	d := testDims
	const b = 9
	in, _ := synthInputs(rng, b, d)
	random := func(shape ...int) *tensor.Dense {
		x := tensor.New(shape...)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		return x
	}
	cnn := NewLatencyCNN(rng, d, 16)
	mlp := NewMLP(rng, d)
	lstm := NewLSTMModel(rng, d)
	parts := []struct {
		name  string
		layer Layer
		x     *tensor.Dense
	}{
		{"LatencyCNN.rhConv", cnn.rhConv, in.RH},
		{"LatencyCNN.lhEnc", cnn.lhEnc, in.LH},
		{"LatencyCNN.rcEnc", cnn.rcEnc, in.RC},
		{"MLP.net", mlp.net, random(b, mlp.in)},
		{"LSTMModel.lstm", lstm.lstm, random(b, d.T, d.F*d.N+d.M)},
		{"LSTMModel.rcEnc", lstm.rcEnc, in.RC},
		{"Sequential{Conv2D,ReLU,Flatten,Dense}", &Sequential{Layers: []Layer{
			NewConv2D(rng, "c", d.F, 3, 3, 1), &ReLU{}, &Flatten{}, NewDense(rng, "fc", 3*d.N*d.T, 4),
		}}, in.RH},
	}
	for _, p := range parts {
		with, without := NewContext(), NewContext()
		dout := random(p.layer.Forward(with, p.x).Shape...)
		p.layer.Forward(without, p.x)
		if dx := p.layer.Backward(with, dout.Clone(), true); dx == nil || dx.Size() != p.x.Size() {
			t.Fatalf("%s: wanted input gradient is %v", p.name, dx)
		}
		if dx := p.layer.Backward(without, dout.Clone(), false); dx != nil {
			t.Fatalf("%s: unwanted input gradient returned", p.name)
		}
		if with.pos != 0 || without.pos != 0 {
			t.Fatalf("%s: tape not unwound: %d / %d frames left", p.name, with.pos, without.pos)
		}
		if p.layer == cnn.lhEnc { // frame 1 is lh.fc's; a Dense sizes dx as buf 2
			if n := len(with.frames[1].bufs); n != 3 {
				t.Fatalf("%s: lh.fc's frame holds %d buffers with dx wanted, want 3", p.name, n)
			}
			if n := len(without.frames[1].bufs); n != 2 {
				t.Fatalf("%s: lh.fc's frame holds %d buffers without dx, want 2 (y and dW)", p.name, n)
			}
		}
		for _, prm := range p.layer.Params() {
			a, c := with.Grad(prm).Data, without.Grad(prm).Data
			nonzero := false
			for i := range a {
				if a[i] != c[i] {
					t.Fatalf("%s: %s gradient differs at %d: %v with dx, %v without", p.name, prm.Name, i, a[i], c[i])
				}
				nonzero = nonzero || a[i] != 0
			}
			if !nonzero {
				t.Fatalf("%s: %s gradient is all zero; the comparison says nothing", p.name, prm.Name)
			}
		}
	}
}
