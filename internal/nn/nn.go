// Package nn implements the neural-network substrate Sinan's latency
// predictor is built on (the paper used MXNet): dense, convolutional, and
// LSTM layers with backpropagation, SGD with momentum and weight decay, the
// paper's φ-scaled squared loss (Eq. 1–2), and a model codec whose bytes are
// a function of the model (serialize.go).
// Everything is plain Go and deterministic given a seeded initialiser.
package nn

import (
	"math"
	"math/rand"

	"sinan/internal/tensor"
)

// Param is one learnable tensor with its gradient and momentum buffers.
type Param struct {
	Name string
	W    *tensor.Dense
	Grad *tensor.Dense
	Vel  *tensor.Dense
}

func newParam(name string, shape ...int) *Param {
	return &Param{
		Name: name,
		W:    tensor.New(shape...),
		Grad: tensor.New(shape...),
		Vel:  tensor.New(shape...),
	}
}

// initUniform fills W with Xavier/Glorot uniform samples for the given fan.
func (p *Param) initUniform(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range p.W.Data {
		p.W.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// Layer is a differentiable module. Layers hold only immutable parameters;
// all per-call state (activation caches, masks, workspaces) lives on the
// caller's Context tape: Forward pushes one frame, Backward pops it.
// Because the tape is a stack, a composite's Backward must visit its
// layers in the exact reverse of its Forward order. Gradients accumulate
// into the context (ctx.Grad), not into Param.Grad — see
// Context.FlushGrads. One layer instance is safe for any number of
// concurrent callers as long as each uses its own Context.
//
// Backward's wantDX says whether the caller consumes the gradient with
// respect to the layer's input. It is a property of where the layer sits —
// a layer fed raw data has nobody to hand dx to — so the model passes it,
// the layer does not store it. With wantDX false a layer still pops its
// frame and accumulates its parameter gradients exactly as with true, but
// computes no dx (and sizes no buffer for it) and returns nil.
//
// Forward may overwrite x and Backward may overwrite dout (ReLU writes both
// in place, Conv2D writes dx over dout when the two are the same size). Both
// are tape storage: another frame's output, or a context's gathered and
// normalised copy, dead once read. A caller that keeps either passes a copy.
// No layer writes what its own Backward reads: Dense and Conv2D read their
// input there, never their output.
type Layer interface {
	Forward(ctx *Context, x *tensor.Dense) *tensor.Dense
	Backward(ctx *Context, dout *tensor.Dense, wantDX bool) *tensor.Dense
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// Forward runs all layers in order.
func (s *Sequential) Forward(ctx *Context, x *tensor.Dense) *tensor.Dense {
	for _, l := range s.Layers {
		x = l.Forward(ctx, x)
	}
	return x
}

// Backward runs all layers in reverse. A layer's input gradient is wanted
// when the caller wants the chain's or a layer before it has parameters, so
// without wantDX the first layer with parameters and the parameter-free
// layers ahead of it (lhEnc's Flatten) compute none.
func (s *Sequential) Backward(ctx *Context, dout *tensor.Dense, wantDX bool) *tensor.Dense {
	first := 0
	for first < len(s.Layers)-1 && paramFree(s.Layers[first]) {
		first++
	}
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(ctx, dout, wantDX || i > first)
	}
	return dout
}

// paramFree reports whether l is one of the package's layers without
// parameters. It asks the type, not Params, which allocates; a layer it does
// not know counts as having parameters, which costs an unread input gradient,
// never a missing one.
func paramFree(l Layer) bool {
	switch l.(type) {
	case *ReLU, *Flatten:
		return true
	}
	return false
}

// Params collects all learnable parameters.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total learnable scalar count of a parameter set.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.W.Size()
	}
	return n
}

// ModelSizeKB reports the serialized model size in KB assuming float32
// storage, the convention the paper's model-size column uses.
func ModelSizeKB(ps []*Param) float64 {
	return float64(NumParams(ps)) * 4 / 1024
}

// SGD is stochastic gradient descent with momentum.
type SGD struct {
	LR       float64
	Momentum float64
}

// Step applies one update and zeroes gradients.
func (o *SGD) Step(ps []*Param) {
	for _, p := range ps {
		for i, g := range p.Grad.Data {
			v := o.Momentum*p.Vel.Data[i] - o.LR*g
			p.Vel.Data[i] = v
			p.W.Data[i] += v
			p.Grad.Data[i] = 0
		}
	}
}

// ClipGrads rescales gradients so their global L2 norm is at most c.
func ClipGrads(ps []*Param, c float64) {
	total := 0.0
	for _, p := range ps {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm <= c || norm == 0 {
		return
	}
	scale := c / norm
	for _, p := range ps {
		tensor.ScaleInPlace(p.Grad, scale)
	}
}
