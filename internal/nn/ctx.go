package nn

import (
	"fmt"

	"sinan/internal/tensor"
)

// Context owns every piece of per-call state a model evaluation needs:
// the activation tape Backward consumes, the gradient accumulators Backward
// adds into, and reusable inference scratch. Layers themselves are immutable
// after construction, so one model instance can be shared by any number of
// goroutines as long as each holds its own Context. Contexts keep their
// buffers across calls — after the first evaluation of a given batch
// shape, the steady state is allocation-free.
//
// A Context is NOT safe for concurrent use; it is exactly the state that
// used to hide inside the layers.
type Context struct {
	// tape of layer frames. Forward pushes one frame per layer invocation;
	// Backward pops them in reverse, so a model's Backward must mirror its
	// Forward call order exactly.
	frames []*frame
	pos    int

	// Latent is the latent vector Lf [B, Latent] produced by the most
	// recent LatencyCNN.Forward on this context (the feature vector the
	// Boosted Trees violation predictor consumes). Owned by the tape — it is
	// trunk.fc's output, rectified in place by the trunk's ReLU, and no
	// Backward writes it; valid until the next Forward.
	Latent *tensor.Dense

	// grads is the accumulator set Backward adds into instead of the shared
	// Param.Grad, so concurrent backward passes over one model never race;
	// FlushGrads moves it into Param.Grad deterministically. It is a set of
	// the context's own, made on first use, unless accumulateInto bound
	// another.
	grads *gradSet

	// TrainedModel inference scratch: normalised inputs, gathered outputs,
	// and reusable chunk-view headers.
	norm   Inputs
	out    *tensor.Dense
	latOut *tensor.Dense
	views  [3]*tensor.Dense

	// expand holds the materialised full-batch form of SharedInputs for
	// regressors without a trunk/head split (see PredictSharedCtx).
	expand Inputs
}

// NewContext returns an empty context. The zero value is also usable.
func NewContext() *Context { return &Context{} }

// Reset rewinds the tape. Model-level Forward methods call it; after an
// abandoned forward pass (e.g. inference with no backward) it makes the
// frames reusable without dropping their buffers.
func (c *Context) Reset() { c.pos = 0 }

// push returns the next frame on the tape, reusing a prior call's frame
// (and all its buffers) when one exists at this position.
func (c *Context) push() *frame {
	if c.pos == len(c.frames) {
		c.frames = append(c.frames, &frame{})
	}
	f := c.frames[c.pos]
	c.pos++
	return f
}

// pop returns the most recently pushed unpopped frame.
func (c *Context) pop() *frame {
	if c.pos == 0 {
		panic("nn: context tape underflow — Backward without matching Forward")
	}
	c.pos--
	return c.frames[c.pos]
}

// gradSet is one set of gradient accumulators, a tensor per parameter. It is
// separate from the tape so that one tape can serve several sets in turn: a
// training worker walks its gradient shards on a single Context and binds
// each shard's set before the shard's Backward (see TrainedModel.batchGrad). The
// zero value is an empty set.
type gradSet struct {
	acc map[*Param]*tensor.Dense
}

// of returns the set's accumulator for p, zero-valued on first use.
func (gs *gradSet) of(p *Param) *tensor.Dense {
	g, ok := gs.acc[p]
	if !ok {
		if gs.acc == nil {
			gs.acc = make(map[*Param]*tensor.Dense)
		}
		g = tensor.New(p.W.Shape...)
		gs.acc[p] = g
	}
	return g
}

// flush adds the set's accumulated gradients into the shared Param.Grad
// buffers and zeroes the accumulators. Iteration follows the order of ps, so
// reducing several sets in a fixed order is deterministic regardless of how
// their backward passes were scheduled.
func (gs *gradSet) flush(ps []*Param) {
	for _, p := range ps {
		if g, ok := gs.acc[p]; ok {
			tensor.AddInPlace(p.Grad, g)
			g.Zero()
		}
	}
}

// accumulateInto makes gs the set this context's Backward passes add into,
// and FlushGrads flushes, until the next call. A context is never without a
// set: before any call it is the context's own, and Grad and FlushGrads read
// the one field, so a gradient cannot land where nothing flushes it from.
func (c *Context) accumulateInto(gs *gradSet) { c.grads = gs }

// Grad returns the bound set's gradient accumulator for p, zero-valued on
// first use.
func (c *Context) Grad(p *Param) *tensor.Dense {
	if c.grads == nil {
		c.grads = &gradSet{}
	}
	return c.grads.of(p)
}

// FlushGrads adds the gradients accumulated through this context into the
// shared Param.Grad buffers, in the order of ps, and zeroes the accumulators.
func (c *Context) FlushGrads(ps []*Param) {
	if c.grads != nil {
		c.grads.flush(ps)
	}
}

// frame is one layer invocation's slot on the tape: the input reference
// plus whatever reusable buffers the layer needs between Forward and
// Backward.
type frame struct {
	x     *tensor.Dense // layer input (owned by the caller or a lower frame)
	shape []int         // small int scratch (saved shapes, batch dims)
	mask  []bool        // ReLU: true where the input was < 0 (its only storage)
	bufs  []*tensor.Dense
	views []*tensor.Dense
	f64   [][]float64
	steps []lstmStep // LSTM per-timestep state
}

// buf returns the i-th workspace tensor of the frame resized to shape,
// reusing storage across calls. Contents are unspecified.
func (f *frame) buf(i int, shape ...int) *tensor.Dense {
	for len(f.bufs) <= i {
		f.bufs = append(f.bufs, nil)
	}
	f.bufs[i] = tensor.Ensure(f.bufs[i], shape...)
	return f.bufs[i]
}

// view returns the i-th reusable tensor header of the frame pointed at
// data with the given shape — a zero-copy reshape that survives reuse.
func (f *frame) view(i int, data []float64, shape ...int) *tensor.Dense {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		// Shape deliberately omitted from the message so it does not escape:
		// view call sites build their shape lists on the stack.
		panic(fmt.Sprintf("nn: view shape of %d elements incompatible with %d-element data", n, len(data)))
	}
	for len(f.views) <= i {
		f.views = append(f.views, &tensor.Dense{})
	}
	v := f.views[i]
	v.Data = data
	if cap(v.Shape) < len(shape) {
		v.Shape = make([]int, len(shape))
	}
	v.Shape = v.Shape[:len(shape)]
	copy(v.Shape, shape)
	return v
}

// floats returns the i-th reusable []float64 scratch of length n.
// Contents are unspecified.
func (f *frame) floats(i, n int) []float64 {
	for len(f.f64) <= i {
		f.f64 = append(f.f64, nil)
	}
	if cap(f.f64[i]) < n {
		f.f64[i] = make([]float64, n)
	}
	f.f64[i] = f.f64[i][:n]
	return f.f64[i]
}
