package nn

import (
	"fmt"

	"sinan/internal/tensor"
)

// SharedInputs is one model query: B candidate allocation rows RC ([B,N])
// and W history windows RH ([W,F,N,T]) / LH ([W,T,M]), where W is either 1
// or B. At W = 1 every candidate shares the one window — the shape the
// scheduler produces, since all of a decision interval's candidates read the
// same history. At W = B row i reads window i: a training, gate or holdout
// batch, which is an Inputs converted with SharedInputs(in).
type SharedInputs struct {
	RH *tensor.Dense
	LH *tensor.Dense
	RC *tensor.Dense
}

// Batch returns the candidate count.
func (in SharedInputs) Batch() int { return in.RC.Shape[0] }

// Windows returns W, the number of history windows: 1 or Batch().
func (in SharedInputs) Windows() int { return in.RH.Shape[0] }

// Expand materialises the W = 1 form as W = B into dst, reusing dst's
// buffers: the history window is repeated across every candidate row and
// the allocations are copied through. No program path takes it; the parity
// tests build their W = B reference with it.
func (in SharedInputs) Expand(dst *Inputs) {
	b := in.Batch()
	dst.RH = tensor.Ensure(dst.RH, b, in.RH.Shape[1], in.RH.Shape[2], in.RH.Shape[3])
	dst.LH = tensor.Ensure(dst.LH, b, in.LH.Shape[1], in.LH.Shape[2])
	dst.RC = tensor.Ensure(dst.RC, b, in.RC.Shape[1])
	tensor.RepeatRowsInto(dst.RH, in.RH)
	tensor.RepeatRowsInto(dst.LH, in.LH)
	copy(dst.RC.Data, in.RC.Data)
}

// ForwardShared is the CNN's W = 1 inference: the history trunk (a function
// of RH/LH only) runs once and only the per-candidate head runs at width B,
// with outputs bit-identical to Forward on the W = B batch — the same
// floating-point ops on the same values, just never repeated. The conv stack
// and latency-history encoder see the single window row, and only the
// allocation encoder and head run at width B. Per-sample kernels (Dense
// rows, im2col columns, ReLU) are row-independent with a fixed accumulation
// order, so a batch-1 activation stands for B identical rows bit for bit.
// The trunk's fusion layer never sees the concatenated [B, rh|lh|rc] batch
// either: a row of x·W is a sum in ascending column of x, so its first
// rh+lh terms — the same for every candidate — are summed once, copied into
// each row, and the per-candidate rc columns continue the sum from there.
// Stores the latent Lf in ctx.Latent, like Forward. It is inference-only:
// it leaves no tape a Backward pass could consume.
func (m *LatencyCNN) ForwardShared(ctx *Context, in SharedInputs) *tensor.Dense {
	ctx.Reset()
	rh := m.rhConv.Forward(ctx, in.RH) // [1, rhOut] — trunk, once
	lh := m.lhEnc.Forward(ctx, in.LH)  // [1, lhOut] — trunk, once
	rc := m.rcEnc.Forward(ctx, in.RC)  // [B, rcOut] — per candidate
	fc := m.trunk.Layers[0].(*Dense)
	w := fc.W.W.Data // [rhOut+lhOut+rcOut, Out]: three row blocks
	n0 := m.dimsCache[0] * fc.Out
	n1 := n0 + m.dimsCache[1]*fc.Out
	f := ctx.push()
	hist := f.buf(0, 1, fc.Out)
	tensor.MatMulInto(hist, rh, f.view(0, w[:n0], m.dimsCache[0], fc.Out))
	tensor.MatMulAddInto(hist, lh, f.view(1, w[n0:n1], m.dimsCache[1], fc.Out))
	z := f.buf(1, in.Batch(), fc.Out)
	tensor.RepeatRowsInto(z, hist)
	tensor.MatMulAddInto(z, rc, f.view(2, w[n1:], m.dimsCache[2], fc.Out))
	fc.addBias(z)
	ctx.Latent = m.trunk.Layers[1].Forward(ctx, z) // the trunk's ReLU, in place over z
	return m.head.Forward(ctx, ctx.Latent)
}

// PredictSharedCtx evaluates a candidate batch on a caller-owned context;
// it is the one way to evaluate a trained model. At W = B it is the
// full-batch path every row takes in training. At W = 1 the model is a
// LatencyCNN: normalisation and the history trunk run once and the
// per-candidate head runs at width B. Both returned tensors are owned by
// ctx and valid until its next use; latent is nil for models that expose
// none.
func (tm *TrainedModel) PredictSharedCtx(ctx *Context, in SharedInputs) (*tensor.Dense, *tensor.Dense) {
	if err := checkSharedInputs(in, tm.Model); err != nil {
		panic(err)
	}
	cnn, ok := tm.Model.(*LatencyCNN)
	if !ok || in.Windows() > 1 {
		return tm.predict(ctx, Inputs(in))
	}
	// The normaliser is per-element (per-channel z-scores), so normalising
	// the single window row is bit-identical to normalising B copies of it.
	d := cnn.Dims()
	tm.Norm.ApplyInto(&ctx.norm, Inputs(in), d)
	pred := cnn.ForwardShared(ctx, SharedInputs(ctx.norm))
	ctx.out = tensor.Ensure(ctx.out, in.Batch(), d.M)
	copy(ctx.out.Data, pred.Data)
	tensor.ScaleInPlace(ctx.out, 1/yScale)
	return ctx.out, ctx.Latent
}

// checkSharedInputs validates the shapes against m's dims: W windows of RH
// and of LH, with W = 1 or W = B. Only a LatencyCNN has a history trunk to
// share, so any other regressor takes one window per candidate.
func checkSharedInputs(in SharedInputs, m Regressor) error {
	d := m.Dims()
	if len(in.RC.Shape) != 2 || in.RC.Shape[1] != d.N {
		return fmt.Errorf("nn: shared RC shape %v, want [B,%d]", in.RC.Shape, d.N)
	}
	if len(in.RH.Shape) != 4 || in.RH.Shape[1] != d.F || in.RH.Shape[2] != d.N || in.RH.Shape[3] != d.T {
		return fmt.Errorf("nn: shared RH shape %v, want [W,%d,%d,%d]", in.RH.Shape, d.F, d.N, d.T)
	}
	w, b := in.Windows(), in.Batch()
	if w != 1 && w != b {
		return fmt.Errorf("nn: %d history windows for %d candidates, want 1 or %d", w, b, b)
	}
	if len(in.LH.Shape) != 3 || in.LH.Shape[0] != w || in.LH.Shape[1] != d.T || in.LH.Shape[2] != d.M {
		return fmt.Errorf("nn: shared LH shape %v, want [%d,%d,%d]", in.LH.Shape, w, d.T, d.M)
	}
	if _, ok := m.(*LatencyCNN); !ok && w != b {
		return fmt.Errorf("nn: %T has no history trunk to share: %d history windows for %d candidates, want %d", m, w, b, b)
	}
	return nil
}
