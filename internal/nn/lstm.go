package nn

import (
	"fmt"
	"math"
	"math/rand"

	"sinan/internal/tensor"
)

// LSTM processes a sequence [B, T, D] and returns the final hidden state
// [B, H]. It is the timeseries baseline the paper compares the CNN against
// (Table 2). Per-call state (the BPTT step caches) lives on the context
// frame, so one LSTM instance serves any number of concurrent contexts.
type LSTM struct {
	D, H int
	W    *Param // [D+H, 4H], gate order: input, forget, cell, output
	B    *Param // [4H]
}

type lstmStep struct {
	concat     *tensor.Dense // [B, D+H]: x_t ⊕ h_{t-1}
	z          *tensor.Dense // [B, 4H] pre-activations; reused as dz in BPTT
	i, f, g, o []float64
	c, tanhC   []float64
	cPrev      []float64
}

// ensure resizes the step's buffers for batch b, reusing storage.
func (st *lstmStep) ensure(b, d, h int) {
	st.concat = tensor.Ensure(st.concat, b, d+h)
	st.z = tensor.Ensure(st.z, b, 4*h)
	grow := func(s []float64) []float64 {
		if cap(s) < b*h {
			return make([]float64, b*h)
		}
		return s[:b*h]
	}
	st.i, st.f, st.g, st.o = grow(st.i), grow(st.f), grow(st.g), grow(st.o)
	st.c, st.tanhC, st.cPrev = grow(st.c), grow(st.tanhC), grow(st.cPrev)
}

// NewLSTM creates an LSTM with Xavier-initialised weights and forget-gate
// bias 1 (the standard trick to ease gradient flow early in training).
func NewLSTM(rng *rand.Rand, name string, d, h int) *LSTM {
	l := &LSTM{
		D: d, H: h,
		W: newParam(name+".W", d+h, 4*h),
		B: newParam(name+".b", 4*h),
	}
	l.W.initUniform(rng, d+h, 4*h)
	for j := h; j < 2*h; j++ {
		l.B.W.Data[j] = 1
	}
	return l
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Forward implements Layer for inputs of shape [B, T, D].
func (l *LSTM) Forward(ctx *Context, x *tensor.Dense) *tensor.Dense {
	if len(x.Shape) != 3 || x.Shape[2] != l.D {
		panic(fmt.Sprintf("nn: lstm expects [B,T,%d], got %v", l.D, x.Shape))
	}
	b, T := x.Shape[0], x.Shape[1]
	f := ctx.push()
	f.shape = append(f.shape[:0], b, T)
	h := f.floats(0, b*l.H)
	c := f.floats(1, b*l.H)
	for i := range h {
		h[i], c[i] = 0, 0
	}
	for len(f.steps) < T {
		f.steps = append(f.steps, lstmStep{})
	}
	for t := 0; t < T; t++ {
		st := &f.steps[t]
		st.ensure(b, l.D, l.H)
		for n := 0; n < b; n++ {
			copy(st.concat.Data[n*(l.D+l.H):], x.Data[(n*T+t)*l.D:(n*T+t+1)*l.D])
			copy(st.concat.Data[n*(l.D+l.H)+l.D:], h[n*l.H:(n+1)*l.H])
		}
		tensor.MatMulInto(st.z, st.concat, l.W.W)
		copy(st.cPrev, c)
		for n := 0; n < b; n++ {
			zr := st.z.Data[n*4*l.H : (n+1)*4*l.H]
			for j := 0; j < l.H; j++ {
				i := sigmoid(zr[j] + l.B.W.Data[j])
				fg := sigmoid(zr[l.H+j] + l.B.W.Data[l.H+j])
				g := math.Tanh(zr[2*l.H+j] + l.B.W.Data[2*l.H+j])
				o := sigmoid(zr[3*l.H+j] + l.B.W.Data[3*l.H+j])
				idx := n*l.H + j
				cNew := fg*c[idx] + i*g
				tc := math.Tanh(cNew)
				st.i[idx], st.f[idx], st.g[idx], st.o[idx] = i, fg, g, o
				st.c[idx], st.tanhC[idx] = cNew, tc
				c[idx] = cNew
				h[idx] = o * tc
			}
		}
	}
	out := f.buf(0, b, l.H)
	copy(out.Data, h)
	return out
}

// Backward implements Layer; dout is the gradient at the final hidden state.
// The recurrent gradient dh and the input gradient dx come from separate
// GEMMs against W's last H and first D rows — the dot products one GEMM
// against all of W would form — so a caller that wants no dx pays only for
// dh.
func (l *LSTM) Backward(ctx *Context, dout *tensor.Dense, wantDX bool) *tensor.Dense {
	f := ctx.pop()
	b, T := f.shape[0], f.shape[1]
	wx := f.view(0, l.W.W.Data[:l.D*4*l.H], l.D, 4*l.H)
	wh := f.view(1, l.W.W.Data[l.D*4*l.H:], l.H, 4*l.H)
	var dx, dxt *tensor.Dense
	if wantDX {
		dx = f.buf(1, b, T, l.D)
		dxt = f.buf(4, b, l.D)
	}
	dh := f.buf(3, b, l.H)
	copy(dh.Data, dout.Data)
	dc := f.floats(2, b*l.H)
	for i := range dc {
		dc[i] = 0
	}
	gW := ctx.Grad(l.W)
	gB := ctx.Grad(l.B)
	dW := f.buf(2, l.D+l.H, 4*l.H)
	for t := T - 1; t >= 0; t-- {
		st := &f.steps[t]
		// st.z's pre-activations are no longer needed; reuse it as dz.
		dz := st.z
		for n := 0; n < b; n++ {
			zr := dz.Data[n*4*l.H : (n+1)*4*l.H]
			for j := 0; j < l.H; j++ {
				idx := n*l.H + j
				do := dh.Data[idx] * st.tanhC[idx]
				dcT := dc[idx] + dh.Data[idx]*st.o[idx]*(1-st.tanhC[idx]*st.tanhC[idx])
				di := dcT * st.g[idx]
				df := dcT * st.cPrev[idx]
				dg := dcT * st.i[idx]
				dc[idx] = dcT * st.f[idx]
				zr[j] = di * st.i[idx] * (1 - st.i[idx])
				zr[l.H+j] = df * st.f[idx] * (1 - st.f[idx])
				zr[2*l.H+j] = dg * (1 - st.g[idx]*st.g[idx])
				zr[3*l.H+j] = do * st.o[idx] * (1 - st.o[idx])
			}
		}
		tensor.MatMulTransAInto(dW, st.concat, dz)
		tensor.AddInPlace(gW, dW)
		for n := 0; n < b; n++ {
			zr := dz.Data[n*4*l.H : (n+1)*4*l.H]
			for j := 0; j < 4*l.H; j++ {
				gB.Data[j] += zr[j]
			}
		}
		tensor.MatMulTransBInto(dh, dz, wh)
		if wantDX {
			tensor.MatMulTransBInto(dxt, dz, wx)
			for n := 0; n < b; n++ {
				copy(dx.Data[(n*T+t)*l.D:(n*T+t+1)*l.D], dxt.Data[n*l.D:(n+1)*l.D])
			}
		}
	}
	return dx
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.W, l.B} }
