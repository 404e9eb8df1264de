package nn

import (
	"fmt"
	"math"
	"math/rand"

	"sinan/internal/tensor"
)

// Dense is a fully-connected layer: y = x·W + b, x of shape [B, In].
type Dense struct {
	In, Out int
	W, B    *Param
}

// NewDense creates a dense layer with Xavier-initialised weights.
func NewDense(rng *rand.Rand, name string, in, out int) *Dense {
	d := &Dense{
		In: in, Out: out,
		W: newParam(name+".W", in, out),
		B: newParam(name+".b", out),
	}
	d.W.initUniform(rng, in, out)
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(ctx *Context, x *tensor.Dense) *tensor.Dense {
	if len(x.Shape) != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: dense expects [B,%d], got %v", d.In, x.Shape))
	}
	f := ctx.push()
	f.x = x
	y := f.buf(0, x.Shape[0], d.Out)
	tensor.MatMulInto(y, x, d.W.W)
	d.addBias(y)
	return y
}

// addBias adds the layer's bias to every row of y [B, Out].
func (d *Dense) addBias(y *tensor.Dense) {
	for i := 0; i < y.Shape[0]; i++ {
		row := y.Data[i*d.Out : (i+1)*d.Out]
		for j := 0; j < d.Out; j++ {
			row[j] += d.B.W.Data[j]
		}
	}
}

// Backward implements Layer.
func (d *Dense) Backward(ctx *Context, dout *tensor.Dense, wantDX bool) *tensor.Dense {
	f := ctx.pop()
	dW := f.buf(1, d.In, d.Out)
	tensor.MatMulTransAInto(dW, f.x, dout)
	tensor.AddInPlace(ctx.Grad(d.W), dW)
	gb := ctx.Grad(d.B)
	b := dout.Shape[0]
	for i := 0; i < b; i++ {
		row := dout.Data[i*d.Out : (i+1)*d.Out]
		for j := 0; j < d.Out; j++ {
			gb.Data[j] += row[j]
		}
	}
	if !wantDX {
		return nil
	}
	dx := f.buf(2, b, d.In)
	tensor.MatMulTransBInto(dx, dout, d.W.W)
	return dx
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ReLU is the rectified linear activation.
type ReLU struct{}

// Forward implements Layer: y = 0 where x < 0, else x (so −0 and NaN pass
// through), written over x, which it returns; the comparison's outcome is
// kept as the mask, the frame's only storage. Half of a network's
// activations are negative in no learnable pattern, so the loop selects on
// the value's bits (a conditional move) where a branch would mispredict.
func (r *ReLU) Forward(ctx *Context, x *tensor.Dense) *tensor.Dense {
	f := ctx.push()
	xd := x.Data
	if cap(f.mask) < len(xd) {
		f.mask = make([]bool, len(xd))
	}
	f.mask = f.mask[:len(xd)]
	mask := f.mask[:len(xd)] // a length the loop's bounds checks can see
	for i, v := range xd {
		neg := v < 0
		bits := math.Float64bits(v)
		if neg {
			bits = 0
		}
		xd[i] = math.Float64frombits(bits)
		mask[i] = neg
	}
	return x
}

// Backward implements Layer: dx = +0 where x was < 0, else dout, selected the
// same way and written over dout, which it returns.
func (r *ReLU) Backward(ctx *Context, dout *tensor.Dense, wantDX bool) *tensor.Dense {
	f := ctx.pop()
	if !wantDX {
		return nil
	}
	dd, mask := dout.Data, f.mask[:len(dout.Data)]
	for i, v := range dd {
		bits := math.Float64bits(v)
		if mask[i] {
			bits = 0
		}
		dd[i] = math.Float64frombits(bits)
	}
	return dout
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Flatten reshapes [B, ...] to [B, prod(...)]. It is a pure view change.
type Flatten struct{}

// Forward implements Layer.
func (fl *Flatten) Forward(ctx *Context, x *tensor.Dense) *tensor.Dense {
	f := ctx.push()
	f.shape = append(f.shape[:0], x.Shape...)
	return f.view(0, x.Data, x.Shape[0], x.Size()/x.Shape[0])
}

// Backward implements Layer.
func (fl *Flatten) Backward(ctx *Context, dout *tensor.Dense, wantDX bool) *tensor.Dense {
	f := ctx.pop()
	if !wantDX {
		return nil
	}
	return f.view(1, dout.Data, f.shape...)
}

// Params implements Layer.
func (fl *Flatten) Params() []*Param { return nil }

// Conv2D is a 2-D convolution with stride 1 and symmetric zero padding.
// Input [B, Cin, H, W], kernel K×K, output [B, Cout, H, W] (same padding
// when Pad = K/2). The kernel window spans K adjacent tiers × K adjacent
// timesteps, letting early layers learn local inter-tier dependencies and
// deeper layers the whole graph (Sec. 3.1).
//
// Forward/Backward run via im2col, one sample at a time: the sample is
// unfolded into a [Cin·K·K, OH·OW] patch matrix (tens of KB, reused across
// the batch) so its convolution is a matmul against the kernel viewed as
// [Cout, Cin·K·K], written straight into the sample's [Cout, OH·OW] block of
// the output. Backward unfolds the sample again instead of keeping a batch of
// patches on the tape.
type Conv2D struct {
	Cin, Cout, K, Pad int
	W, B              *Param
	wmat              *tensor.Dense // [Cout, Cin·K·K] view of W.W's storage
}

// NewConv2D creates a convolution layer with Xavier-initialised kernels.
func NewConv2D(rng *rand.Rand, name string, cin, cout, k, pad int) *Conv2D {
	c := &Conv2D{
		Cin: cin, Cout: cout, K: k, Pad: pad,
		W: newParam(name+".W", cout, cin, k, k),
		B: newParam(name+".b", cout),
	}
	c.W.initUniform(rng, cin*k*k, cout*k*k)
	// Matrix view sharing W's backing array; serialize.Load copies into
	// W.W.Data in place, so the view stays valid across deserialisation.
	c.wmat = tensor.FromSlice(c.W.W.Data, cout, cin*k*k)
	return c
}

func (c *Conv2D) outDims(h, w int) (int, int) {
	return h + 2*c.Pad - c.K + 1, w + 2*c.Pad - c.K + 1
}

// Forward implements Layer.
func (c *Conv2D) Forward(ctx *Context, x *tensor.Dense) *tensor.Dense {
	if len(x.Shape) != 4 || x.Shape[1] != c.Cin {
		panic(fmt.Sprintf("nn: conv expects [B,%d,H,W], got %v", c.Cin, x.Shape))
	}
	f := ctx.push()
	f.x = x
	b, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.outDims(h, w)
	ohow, xrow := oh*ow, c.Cin*h*w
	cols := f.buf(0, c.Cin*c.K*c.K, ohow)
	y := f.buf(1, b, c.Cout, oh, ow)
	for n := 0; n < b; n++ {
		tensor.Im2Col(cols, f.view(0, x.Data[n*xrow:(n+1)*xrow], 1, c.Cin, h, w), c.K, c.Pad)
		yn := f.view(1, y.Data[n*c.Cout*ohow:(n+1)*c.Cout*ohow], c.Cout, ohow)
		tensor.MatMulInto(yn, c.wmat, cols)
		for co, bias := range c.B.W.Data {
			row := yn.Data[co*ohow : (co+1)*ohow]
			for j, v := range row {
				row[j] = v + bias
			}
		}
	}
	return y
}

// Backward implements Layer. Every sum runs in the order of the batch-wide
// products this loop replaced (refConv in nn_test.go), whose columns were
// sample-major: the bias gradient over (n, j), dW's dot products handed on
// from sample to sample in ascending n, dx a sample at a time.
//
// When dout has dx's size (Cout·OH·OW = Cin·H·W, as under same padding with
// Cin = Cout), dx is written over dout: the bias loop has read all of dout
// before the sample loop starts, sample n's two products have read its
// block before Col2Im clears and fills it, and no two samples' blocks
// overlap.
func (c *Conv2D) Backward(ctx *Context, dout *tensor.Dense, wantDX bool) *tensor.Dense {
	f := ctx.pop()
	x := f.x
	b, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.outDims(h, w)
	ckk, ohow, xrow := c.Cin*c.K*c.K, oh*ow, c.Cin*h*w
	gb := ctx.Grad(c.B)
	for co := 0; co < c.Cout; co++ {
		s := 0.0
		for n := 0; n < b; n++ {
			for _, v := range dout.Data[(n*c.Cout+co)*ohow : (n*c.Cout+co+1)*ohow] {
				s += v
			}
		}
		gb.Data[co] += s
	}
	// Per sample: dW += dY·colsᵀ, dcols = Wᵀ·dY, dx = col2im(dcols).
	cols := f.buf(0, ckk, ohow)
	dW := f.buf(2, c.Cout, ckk)
	dW.Zero()
	var dx, dcols *tensor.Dense
	if wantDX { // otherwise neither is ever sized
		if len(dout.Data) == b*xrow {
			dx = f.view(3, dout.Data, b, c.Cin, h, w)
		} else {
			dx = f.buf(3, b, c.Cin, h, w)
		}
		dcols = f.buf(4, ckk, ohow)
	}
	for n := 0; n < b; n++ {
		tensor.Im2Col(cols, f.view(0, x.Data[n*xrow:(n+1)*xrow], 1, c.Cin, h, w), c.K, c.Pad)
		dyn := f.view(1, dout.Data[n*c.Cout*ohow:(n+1)*c.Cout*ohow], c.Cout, ohow)
		tensor.MatMulTransBAddInto(dW, dyn, cols)
		if wantDX {
			tensor.MatMulTransAInto(dcols, c.wmat, dyn)
			tensor.Col2Im(f.view(2, dx.Data[n*xrow:(n+1)*xrow], 1, c.Cin, h, w), dcols, c.K, c.Pad)
		}
	}
	tensor.AddInPlace(ctx.Grad(c.W), dW)
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }
