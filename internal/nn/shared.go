package nn

import (
	"fmt"

	"sinan/internal/tensor"
)

// SharedInputs is one decision interval's candidate batch in deduplicated
// form: every candidate shares the same history window, so RH and LH carry
// exactly one row ([1,F,N,T] / [1,T,M]) while RC holds the per-candidate
// allocations [B,N]. This is the shape the scheduler naturally produces —
// the expanded Inputs form with B bit-identical history rows exists only
// for models without a trunk/head split (see Expand).
type SharedInputs struct {
	RH *tensor.Dense
	LH *tensor.Dense
	RC *tensor.Dense
}

// Batch returns the candidate count.
func (in SharedInputs) Batch() int { return in.RC.Shape[0] }

// Expand materialises the full-batch Inputs form into dst, reusing dst's
// buffers: the history window is repeated across every candidate row and
// the allocations are copied through. The expansion is the compatibility
// bridge to per-row Predictors; shared-aware models never need it.
func (in SharedInputs) Expand(dst *Inputs) {
	b := in.Batch()
	dst.RH = tensor.Ensure(dst.RH, b, in.RH.Shape[1], in.RH.Shape[2], in.RH.Shape[3])
	dst.LH = tensor.Ensure(dst.LH, b, in.LH.Shape[1], in.LH.Shape[2])
	dst.RC = tensor.Ensure(dst.RC, b, in.RC.Shape[1])
	tensor.RepeatRowsInto(dst.RH, in.RH)
	tensor.RepeatRowsInto(dst.LH, in.LH)
	copy(dst.RC.Data, in.RC.Data)
}

// SharedRegressor is implemented by regressors whose inference factors into
// a history trunk (a function of RH/LH only) and a per-candidate head: given
// the deduplicated SharedInputs, ForwardShared runs the trunk once and
// evaluates only the head per candidate. The contract is bit-identical
// outputs to Forward on the expanded batch — the same floating-point ops on
// the same values, just never repeated. ForwardShared is inference-only: it
// does not leave a tape a Backward pass could consume.
type SharedRegressor interface {
	Regressor
	ForwardShared(ctx *Context, in SharedInputs) *tensor.Dense
}

// ForwardShared implements SharedRegressor: the conv stack and latency-
// history encoder see the single window row, and only the allocation encoder
// and head run at width B. Per-sample kernels (Dense rows, im2col columns,
// ReLU) are row-independent with a fixed accumulation order, so a batch-1
// activation stands for B identical rows bit for bit. The trunk's fusion
// layer never sees the concatenated [B, rh|lh|rc] batch either: a row of
// x·W is a sum in ascending column of x, so its first rh+lh terms — the same
// for every candidate — are summed once, copied into each row, and the
// per-candidate rc columns continue the sum from there. Stores the latent Lf
// in ctx.Latent, like Forward.
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

// PredictSharedCtx evaluates a shared-history candidate batch on a
// caller-owned context: normalisation and the history trunk run once, the
// per-candidate head runs at width B. For regressors without a trunk/head
// split (the MLP and LSTM baselines) the batch is expanded and takes the
// ordinary per-row path — same results, no savings. Both returned tensors
// are owned by ctx and valid until its next use; latent is nil for models
// that expose none.
func (tm *TrainedModel) PredictSharedCtx(ctx *Context, in SharedInputs) (*tensor.Dense, *tensor.Dense) {
	d := tm.Model.Dims()
	if err := checkSharedInputs(in, d); err != nil {
		panic(err)
	}
	sr, ok := tm.Model.(SharedRegressor)
	if !ok {
		in.Expand(&ctx.expand)
		return tm.predict(ctx, ctx.expand, true)
	}
	// The normaliser is per-element (per-channel z-scores), so normalising
	// the single window row is bit-identical to normalising B copies of it.
	tm.Norm.ApplyInto(&ctx.norm, Inputs{RH: in.RH, LH: in.LH, RC: in.RC}, d)
	pred := sr.ForwardShared(ctx, SharedInputs{RH: ctx.norm.RH, LH: ctx.norm.LH, RC: ctx.norm.RC})
	b := in.Batch()
	ctx.out = tensor.Ensure(ctx.out, b, d.M)
	copy(ctx.out.Data, pred.Data)
	tensor.ScaleInPlace(ctx.out, 1/yScale)
	return ctx.out, ctx.Latent
}

// checkSharedInputs validates shared-input shapes against dims.
func checkSharedInputs(in SharedInputs, d Dims) error {
	if len(in.RH.Shape) != 4 || in.RH.Shape[0] != 1 || in.RH.Shape[1] != d.F || in.RH.Shape[2] != d.N || in.RH.Shape[3] != d.T {
		return fmt.Errorf("nn: shared RH shape %v, want [1,%d,%d,%d]", in.RH.Shape, d.F, d.N, d.T)
	}
	if len(in.LH.Shape) != 3 || in.LH.Shape[0] != 1 || in.LH.Shape[1] != d.T || in.LH.Shape[2] != d.M {
		return fmt.Errorf("nn: shared LH shape %v, want [1,%d,%d]", in.LH.Shape, d.T, d.M)
	}
	if len(in.RC.Shape) != 2 || in.RC.Shape[1] != d.N {
		return fmt.Errorf("nn: shared RC shape %v, want [B,%d]", in.RC.Shape, d.N)
	}
	return nil
}
