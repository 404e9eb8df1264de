package nn

import (
	"fmt"
	"math/rand"

	"sinan/internal/tensor"
)

// Inputs is one batch of model input, mirroring Sec. 3.1:
//
//	RH — resource-usage history "image" [B, F, N, T]: F resource channels,
//	     N tiers, T past timesteps;
//	LH — end-to-end latency-percentile history [B, T, M];
//	RC — candidate per-tier CPU allocation for the next step [B, N].
type Inputs struct {
	RH *tensor.Dense
	LH *tensor.Dense
	RC *tensor.Dense
}

// Batch returns the batch size.
func (in Inputs) Batch() int { return in.RH.Shape[0] }

// Rows is a source of model input rows that training reads in place:
// GatherInto assembles samples idx, in list order, in dst's buffers.
// Inputs is one; a dataset that stores its samples otherwise is another.
type Rows interface {
	GatherInto(dst *Inputs, idx []int)
}

// GatherInto copies samples idx of in into dst, reusing dst's buffers when
// their capacity allows.
func (in Inputs) GatherInto(dst *Inputs, idx []int) {
	dst.RH = gatherRows(dst.RH, in.RH, idx)
	dst.LH = gatherRows(dst.LH, in.LH, idx)
	dst.RC = gatherRows(dst.RC, in.RC, idx)
}

// gatherRows copies rows idx of src (along axis 0) into dst, resized to
// [len(idx), src.Shape[1:]...] and reusing its storage when the capacity
// allows; a nil dst allocates.
func gatherRows(dst, src *tensor.Dense, idx []int) *tensor.Dense {
	var shape [4]int // on the stack: every model input has at most 4 axes
	sh := shape[:copy(shape[:], src.Shape)]
	sh[0] = len(idx)
	dst = tensor.Ensure(dst, sh...)
	row := src.Size() / src.Shape[0]
	for k, i := range idx {
		copy(dst.Data[k*row:(k+1)*row], src.Data[i*row:(i+1)*row])
	}
	return dst
}

// Dims describes the model input dimensions.
type Dims struct {
	N int // tiers
	T int // past timesteps
	F int // resource channels
	M int // latency percentiles predicted
}

// Regressor is a latency predictor: Forward maps Inputs to predicted tail
// latencies [B, M] (p95..p99 of the next decision interval). All per-call
// state lives on the caller's Context; Forward resets the context tape,
// and Backward must follow the matching Forward on the same context.
type Regressor interface {
	Forward(ctx *Context, in Inputs) *tensor.Dense
	Backward(ctx *Context, dpred *tensor.Dense)
	Params() []*Param
	Dims() Dims
}

// LatencyCNN is the paper's short-term latency predictor (Fig. 5): a CNN
// over the resource-history image, fused with encoded latency history and
// the candidate allocation into a compact latent vector Lf, from which the
// next-interval tail latencies are predicted. Lf is also the feature vector
// the Boosted Trees violation predictor consumes; Forward stores it in
// ctx.Latent.
type LatencyCNN struct {
	dims   Dims
	Latent int

	rhConv *Sequential // conv stack + flatten + dense on RH
	lhEnc  *Sequential // dense encoder on flattened LH
	rcEnc  *Sequential // dense encoder on RC
	trunk  *Sequential // concat → latent Lf
	head   *Dense      // Lf → M latencies

	dimsCache [3]int
}

// NewLatencyCNN builds the CNN with the given input dimensions and latent
// width. Channel counts follow the paper's methodology of growing the net
// until validation accuracy levels off, while keeping the model small.
func NewLatencyCNN(rng *rand.Rand, d Dims, latent int) *LatencyCNN {
	if latent <= 0 {
		latent = 32
	}
	const c1, c2, rhOut, lhOut, rcOut = 8, 8, 24, 16, 16
	m := &LatencyCNN{dims: d, Latent: latent}
	m.rhConv = &Sequential{Layers: []Layer{
		NewConv2D(rng, "rh.conv1", d.F, c1, 3, 1), &ReLU{},
		NewConv2D(rng, "rh.conv2", c1, c2, 3, 1), &ReLU{},
		&Flatten{},
		NewDense(rng, "rh.fc", c2*d.N*d.T, rhOut), &ReLU{},
	}}
	m.lhEnc = &Sequential{Layers: []Layer{
		&Flatten{},
		NewDense(rng, "lh.fc", d.T*d.M, lhOut), &ReLU{},
	}}
	m.rcEnc = &Sequential{Layers: []Layer{
		NewDense(rng, "rc.fc", d.N, rcOut), &ReLU{},
	}}
	m.trunk = &Sequential{Layers: []Layer{
		NewDense(rng, "trunk.fc", rhOut+lhOut+rcOut, latent), &ReLU{},
	}}
	m.head = NewDense(rng, "head.fc", latent, d.M)
	m.dimsCache = [3]int{rhOut, lhOut, rcOut}
	return m
}

// Dims implements Regressor.
func (m *LatencyCNN) Dims() Dims { return m.dims }

// Forward implements Regressor and stores the latent vector Lf in
// ctx.Latent.
func (m *LatencyCNN) Forward(ctx *Context, in Inputs) *tensor.Dense {
	ctx.Reset()
	rh := m.rhConv.Forward(ctx, in.RH)
	lh := m.lhEnc.Forward(ctx, in.LH)
	rc := m.rcEnc.Forward(ctx, in.RC)
	f := ctx.push()
	cat := f.buf(0, in.Batch(), m.dimsCache[0]+m.dimsCache[1]+m.dimsCache[2])
	tensor.ConcatInto(cat, rh, lh, rc)
	ctx.Latent = m.trunk.Forward(ctx, cat)
	return m.head.Forward(ctx, ctx.Latent)
}

// Backward implements Regressor.
func (m *LatencyCNN) Backward(ctx *Context, dpred *tensor.Dense) {
	m.BackwardWithLatentGrad(ctx, dpred, nil)
}

// BackwardWithLatentGrad backpropagates the prediction gradient plus an
// optional extra gradient flowing directly into the latent Lf. The branch
// order is the exact reverse of Forward's, as the tape requires.
func (m *LatencyCNN) BackwardWithLatentGrad(ctx *Context, dpred, dlatent *tensor.Dense) {
	// dl is head's own dx buffer: dlatent is added before the trunk's ReLU
	// rectifies it in place, and dpred is never written.
	dl := m.head.Backward(ctx, dpred, true)
	if dlatent != nil {
		tensor.AddInPlace(dl, dlatent)
	}
	dcat := m.trunk.Backward(ctx, dl, true)
	f := ctx.pop()
	b := dcat.Shape[0]
	p0 := f.buf(1, b, m.dimsCache[0])
	p1 := f.buf(2, b, m.dimsCache[1])
	p2 := f.buf(3, b, m.dimsCache[2])
	tensor.SplitInto(dcat, p0, p1, p2)
	// The three branches start at data: nobody consumes their input gradient.
	m.rcEnc.Backward(ctx, p2, false)
	m.lhEnc.Backward(ctx, p1, false)
	m.rhConv.Backward(ctx, p0, false)
}

// Params implements Regressor.
func (m *LatencyCNN) Params() []*Param {
	ps := m.rhConv.Params()
	ps = append(ps, m.lhEnc.Params()...)
	ps = append(ps, m.rcEnc.Params()...)
	ps = append(ps, m.trunk.Params()...)
	ps = append(ps, m.head.Params()...)
	return ps
}

// MLP is the multilayer-perceptron baseline of Table 2: all inputs are
// flattened into one vector [F·N·T + T·M + N] and passed through
// fully-connected layers.
type MLP struct {
	dims Dims
	net  *Sequential
	in   int
}

// NewMLP builds the baseline MLP.
func NewMLP(rng *rand.Rand, d Dims) *MLP {
	in := d.F*d.N*d.T + d.T*d.M + d.N
	return &MLP{
		dims: d,
		in:   in,
		net: &Sequential{Layers: []Layer{
			NewDense(rng, "mlp.fc1", in, 512), &ReLU{},
			NewDense(rng, "mlp.fc2", 512, 256), &ReLU{},
			NewDense(rng, "mlp.fc3", 256, d.M),
		}},
	}
}

// Dims implements Regressor.
func (m *MLP) Dims() Dims { return m.dims }

// Forward implements Regressor.
func (m *MLP) Forward(ctx *Context, in Inputs) *tensor.Dense {
	ctx.Reset()
	f := ctx.push()
	b := in.Batch()
	flat := f.buf(0, b, m.in)
	rhRow := in.RH.Size() / b
	lhRow := in.LH.Size() / b
	rcRow := in.RC.Size() / b
	for i := 0; i < b; i++ {
		off := i * m.in
		copy(flat.Data[off:], in.RH.Data[i*rhRow:(i+1)*rhRow])
		copy(flat.Data[off+rhRow:], in.LH.Data[i*lhRow:(i+1)*lhRow])
		copy(flat.Data[off+rhRow+lhRow:], in.RC.Data[i*rcRow:(i+1)*rcRow])
	}
	return m.net.Forward(ctx, flat)
}

// Backward implements Regressor.
func (m *MLP) Backward(ctx *Context, dpred *tensor.Dense) {
	m.net.Backward(ctx, dpred, false) // fc1 reads the flattened data
	ctx.pop()                         // the flatten frame pushed by Forward
}

// Params implements Regressor.
func (m *MLP) Params() []*Param { return m.net.Params() }

// lstmRCOut is the width of LSTMModel's candidate-allocation encoding.
const lstmRCOut = 16

// LSTMModel is the recurrent baseline of Table 2: the resource history is
// presented as a T-step sequence of [F·N + M] vectors (per-step resource
// snapshot plus latency percentiles); the final hidden state is fused with
// the encoded candidate allocation.
type LSTMModel struct {
	dims   Dims
	lstm   *LSTM
	rcEnc  *Sequential
	head   *Sequential
	hidden int
}

// NewLSTMModel builds the baseline LSTM regressor.
func NewLSTMModel(rng *rand.Rand, d Dims) *LSTMModel {
	const hidden = 96
	return &LSTMModel{
		dims:   d,
		hidden: hidden,
		lstm:   NewLSTM(rng, "lstm", d.F*d.N+d.M, hidden),
		rcEnc: &Sequential{Layers: []Layer{
			NewDense(rng, "lstm.rc", d.N, lstmRCOut), &ReLU{},
		}},
		head: &Sequential{Layers: []Layer{
			NewDense(rng, "lstm.head1", hidden+lstmRCOut, 64), &ReLU{},
			NewDense(rng, "lstm.head2", 64, d.M),
		}},
	}
}

// Dims implements Regressor.
func (m *LSTMModel) Dims() Dims { return m.dims }

// Forward implements Regressor.
func (m *LSTMModel) Forward(ctx *Context, in Inputs) *tensor.Dense {
	ctx.Reset()
	f := ctx.push()
	d := m.dims
	b := in.Batch()
	dim := d.F*d.N + d.M
	// Rearrange RH [B,F,N,T] + LH [B,T,M] into the sequence [B,T,F·N+M].
	seq := f.buf(0, b, d.T, dim)
	for n := 0; n < b; n++ {
		for t := 0; t < d.T; t++ {
			off := (n*d.T + t) * dim
			for ff := 0; ff < d.F; ff++ {
				for tier := 0; tier < d.N; tier++ {
					seq.Data[off+ff*d.N+tier] = in.RH.Data[((n*d.F+ff)*d.N+tier)*d.T+t]
				}
			}
			copy(seq.Data[off+d.F*d.N:], in.LH.Data[(n*d.T+t)*d.M:(n*d.T+t+1)*d.M])
		}
	}
	h := m.lstm.Forward(ctx, seq)
	rc := m.rcEnc.Forward(ctx, in.RC)
	fc := ctx.push() // fusion frame, pushed after the branches
	cat := fc.buf(0, b, m.hidden+lstmRCOut)
	tensor.ConcatInto(cat, h, rc)
	return m.head.Forward(ctx, cat)
}

// Backward implements Regressor. Gradients into the raw sequence inputs are
// not computed (inputs are data, not parameters).
func (m *LSTMModel) Backward(ctx *Context, dpred *tensor.Dense) {
	dcat := m.head.Backward(ctx, dpred, true)
	fc := ctx.pop() // fusion frame
	b := dcat.Shape[0]
	dh := fc.buf(1, b, m.hidden)
	drc := fc.buf(2, b, lstmRCOut)
	tensor.SplitInto(dcat, dh, drc)
	m.rcEnc.Backward(ctx, drc, false)
	m.lstm.Backward(ctx, dh, false)
	ctx.pop() // sequence frame
}

// Params implements Regressor.
func (m *LSTMModel) Params() []*Param {
	ps := []*Param{}
	ps = append(ps, m.lstm.Params()...)
	ps = append(ps, m.rcEnc.Params()...)
	ps = append(ps, m.head.Params()...)
	return ps
}

// MultiTaskNN is the rejected joint design of Fig. 4: one network predicting
// both the next-interval latencies and QoS-violation logits for the next K
// intervals. The semantic gap between the bounded violation probability and
// the unbounded latency makes it overpredict latency — the motivation for
// the two-stage CNN + Boosted Trees design.
type MultiTaskNN struct {
	CNN *LatencyCNN
	// violation head on the shared latent
	vHead *Dense
	K     int
}

// NewMultiTaskNN builds the joint multi-task baseline.
func NewMultiTaskNN(rng *rand.Rand, d Dims, latent, k int) *MultiTaskNN {
	cnn := NewLatencyCNN(rng, d, latent)
	return &MultiTaskNN{
		CNN:   cnn,
		vHead: NewDense(rng, "vhead.fc", cnn.Latent, k),
		K:     k,
	}
}

// Forward returns predicted latencies [B, M] and violation logits [B, K].
func (m *MultiTaskNN) Forward(ctx *Context, in Inputs) (*tensor.Dense, *tensor.Dense) {
	lat := m.CNN.Forward(ctx, in)
	logits := m.vHead.Forward(ctx, ctx.Latent)
	return lat, logits
}

// Backward propagates both heads' gradients through the shared trunk. vHead
// reads ctx.Latent, which no Backward writes.
func (m *MultiTaskNN) Backward(ctx *Context, dlat, dlogits *tensor.Dense) {
	dlatent := m.vHead.Backward(ctx, dlogits, true)
	m.CNN.BackwardWithLatentGrad(ctx, dlat, dlatent)
}

// Params returns all learnable parameters.
func (m *MultiTaskNN) Params() []*Param {
	return append(m.CNN.Params(), m.vHead.Params()...)
}

// checkInputs validates input shapes against dims.
func checkInputs(in Inputs, d Dims) error {
	b := in.RH.Shape[0]
	if len(in.RH.Shape) != 4 || in.RH.Shape[1] != d.F || in.RH.Shape[2] != d.N || in.RH.Shape[3] != d.T {
		return fmt.Errorf("nn: RH shape %v, want [B,%d,%d,%d]", in.RH.Shape, d.F, d.N, d.T)
	}
	if len(in.LH.Shape) != 3 || in.LH.Shape[0] != b || in.LH.Shape[1] != d.T || in.LH.Shape[2] != d.M {
		return fmt.Errorf("nn: LH shape %v, want [%d,%d,%d]", in.LH.Shape, b, d.T, d.M)
	}
	if len(in.RC.Shape) != 2 || in.RC.Shape[0] != b || in.RC.Shape[1] != d.N {
		return fmt.Errorf("nn: RC shape %v, want [%d,%d]", in.RC.Shape, b, d.N)
	}
	return nil
}
