package nn

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"

	"sinan/internal/tensor"
)

// Normalizer standardises model inputs: per-channel z-scores for the
// resource-history image, global z-scores for latency history and candidate
// allocations. Fitted on the training set and reused at inference, so
// deployment data is interpreted on the training scale.
type Normalizer struct {
	RHMean, RHStd []float64 // per resource channel, length F
	LHMean, LHStd float64
	RCMean, RCStd float64
}

// FitNormalizer computes normalisation statistics from a training set.
func FitNormalizer(in Inputs, d Dims) *Normalizer {
	return fitNormalizerRows(&Inputs{}, in, AllRows(in.Batch()), d)
}

// fitNormalizerRows computes normalisation statistics from samples rows of
// src, gathering PredictChunk of them at a time into buf and continuing each
// channel's sums from chunk to chunk in the order of the list — the adds
// summing the rows' copy in one pass performs. The first chunk's shapes are
// checked against d.
func fitNormalizerRows(buf *Inputs, src Rows, rows []int, d Dims) *Normalizer {
	per, lhW := d.N*d.T, d.T*d.M
	rh, lh, rc := make([]moments, d.F), moments{}, moments{}
	for s := 0; s < len(rows); s += PredictChunk {
		e := min(s+PredictChunk, len(rows))
		src.GatherInto(buf, rows[s:e])
		if s == 0 {
			if err := checkInputs(*buf, d); err != nil {
				panic(err)
			}
		}
		for k := 0; k < e-s; k++ {
			for f := range rh {
				rh[f].add(buf.RH.Data[(k*d.F+f)*per : (k*d.F+f+1)*per])
			}
			lh.add(buf.LH.Data[k*lhW : (k+1)*lhW])
			rc.add(buf.RC.Data[k*d.N : (k+1)*d.N])
		}
	}
	n := &Normalizer{RHMean: make([]float64, d.F), RHStd: make([]float64, d.F)}
	for f := range rh {
		n.RHMean[f], n.RHStd[f] = rh[f].meanStd(len(rows) * per)
	}
	n.LHMean, n.LHStd = lh.meanStd(len(rows) * lhW)
	n.RCMean, n.RCStd = rc.meanStd(len(rows) * d.N)
	return n
}

// moments is a running sum and sum of squares.
type moments struct{ sum, sumsq float64 }

func (m *moments) add(vs []float64) {
	for _, v := range vs {
		m.sum += v
		m.sumsq += v * v
	}
}

// meanStd is the mean and floored standard deviation of the cnt values
// summed.
func (m moments) meanStd(cnt int) (float64, float64) {
	c := float64(cnt)
	mean := m.sum / c
	std := math.Sqrt(math.Max(m.sumsq/c-mean*mean, 0))
	return mean, floorStd(std)
}

// AllRows is the row list of every sample of an n-sample batch, in order.
func AllRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func floorStd(s float64) float64 {
	if s < 1e-6 {
		return 1
	}
	return s
}

// ApplyInto normalises in into dst, reusing dst's buffers when their
// capacity allows, so reusable contexts allocate nothing. dst may be in
// itself, normalising in place.
func (n *Normalizer) ApplyInto(dst *Inputs, in Inputs, d Dims) {
	dst.RH = tensor.Ensure(dst.RH, in.RH.Shape...)
	dst.LH = tensor.Ensure(dst.LH, in.LH.Shape...)
	dst.RC = tensor.Ensure(dst.RC, in.RC.Shape...)
	b := in.Batch()
	per := d.N * d.T
	for i := 0; i < b; i++ {
		for f := 0; f < d.F; f++ {
			base := (i*d.F + f) * per
			mean, std := n.RHMean[f], n.RHStd[f]
			for j := 0; j < per; j++ {
				dst.RH.Data[base+j] = (in.RH.Data[base+j] - mean) / std
			}
		}
	}
	for i, v := range in.LH.Data {
		dst.LH.Data[i] = (v - n.LHMean) / n.LHStd
	}
	for i, v := range in.RC.Data {
		dst.RC.Data[i] = (v - n.RCMean) / n.RCStd
	}
}

// TrainConfig controls Train and FineTune.
type TrainConfig struct {
	Epochs int
	Batch  int
	LR     float64
	QoSMS  float64 // φ knee (Eq. 2) in milliseconds; 0 disables scaling
	Seed   int64
	Log    io.Writer // optional epoch-loss log
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.Batch <= 0 {
		c.Batch = 256
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	return c
}

// The optimiser's fixed settings: SGD momentum, the global gradient-norm
// clip, and the φ decay of the scaled loss (Eq. 2).
const (
	momentum = 0.9
	clipNorm = 5
	phiAlpha = 0.01
)

// trainShards is the number of gradient shards each minibatch is split
// into. Shards are evaluated concurrently, each into its own gradient
// accumulators, and reduced in shard order, so the resulting gradients — and
// the trained weights — are bit-identical for any GOMAXPROCS.
const trainShards = 4

// yScale converts milliseconds to model output units; predicting latencies
// in ~unit scale keeps gradients well-conditioned with Xavier init.
const yScale = 0.01

// minShard is the smallest per-shard batch worth fanning out; tiny batches
// collapse to fewer shards (a deterministic function of batch size only).
const minShard = 16

// TrainedModel couples a regressor with its input normaliser and target
// scaling, exposing millisecond-space prediction.
//
// After training a TrainedModel is an immutable value: all per-call state
// lives on a caller-owned Context, so one shared instance serves any
// number of goroutines — truly in parallel — via PredictSharedCtx (or the
// allocating PredictWithLatent).
// Train and FineTune mutate the weights and must not run concurrently
// with inference on the same instance; retraining flows hand a copy to
// FineTune instead (see Clone).
type TrainedModel struct {
	Model Regressor
	Norm  *Normalizer
}

// Clone deep-copies the trained model: a model of the same kind and dims
// with the weights copied through Params(), so the copy shares no weights
// with the original. Inference never needs a clone (share the instance,
// give each goroutine a Context); Clone exists for flows that fine-tune
// divergent weight copies from one base model. It panics only on a
// Regressor this package does not define.
func (tm *TrainedModel) Clone() *TrainedModel {
	s, err := specOf(tm.Model)
	if err != nil {
		panic(err)
	}
	model := s.build()
	from := tm.Model.Params()
	for i, p := range model.Params() {
		copy(p.W.Data, from[i].W.Data)
	}
	norm := *tm.Norm
	norm.RHMean, norm.RHStd = slices.Clone(norm.RHMean), slices.Clone(norm.RHStd)
	return &TrainedModel{Model: model, Norm: &norm}
}

// Train fits a regressor on inputs (raw feature space) and targets in
// milliseconds [B, M], returning the wrapped model. Training is plain SGD
// with momentum, gradient clipping, and the φ-scaled squared loss; each
// minibatch's gradient is computed data-parallel across trainShards
// shards and reduced deterministically.
func Train(model Regressor, in Inputs, yMS *tensor.Dense, cfg TrainConfig) *TrainedModel {
	return TrainRows(model, in, yMS, AllRows(in.Batch()), cfg)
}

// TrainRows is Train on samples rows of src and yMS, in the order of the
// list, read in place: each minibatch slice is gathered and normalised in a
// worker's buffers.
func TrainRows(model Regressor, src Rows, yMS *tensor.Dense, rows []int, cfg TrainConfig) *TrainedModel {
	cfg = cfg.withDefaults()
	shards := newTrainShards()
	// The normaliser's chunks are gathered into the buffers the first
	// shard's rows are later gathered into: one buffer serves both.
	tm := &TrainedModel{Model: model, Norm: fitNormalizerRows(&shards[0].in, src, rows, model.Dims())}
	tm.fit(shards, src, yMS, rows, cfg)
	return tm
}

// FineTune continues training an existing model on new data with the given
// config (typically a much smaller learning rate, per Sec. 5.4: λ/100 to
// keep the solution near the original weights). The original normaliser is
// retained so features stay on the original scale.
func (tm *TrainedModel) FineTune(in Inputs, yMS *tensor.Dense, cfg TrainConfig) {
	cfg = cfg.withDefaults()
	tm.fit(newTrainShards(), in, yMS, AllRows(in.Batch()), cfg)
}

func (tm *TrainedModel) fit(shards []trainShard, src Rows, yMS *tensor.Dense, rows []int, cfg TrainConfig) {
	var loss Loss = MSE{}
	if cfg.QoSMS > 0 {
		loss = ScaledMSE{Knee: cfg.QoSMS * yScale, Alpha: phiAlpha / yScale}
	}
	opt := &SGD{LR: cfg.LR, Momentum: momentum}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	// Shuffled by position, as a copied batch of the rows would be.
	idx := append([]int(nil), rows...)
	n := len(idx)
	params := tm.Model.Params()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		total := 0.0
		batches := 0
		for s := 0; s < n; s += cfg.Batch {
			e := s + cfg.Batch
			if e > n {
				e = n
			}
			for _, sh := range tm.batchGrad(shards, src, yMS, idx[s:e], loss, params) {
				total += sh.loss
			}
			ClipGrads(params, clipNorm)
			opt.Step(params)
			batches++
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %d: loss %.6f\n", epoch, total/float64(batches))
		}
	}
}

// batchGrad adds the mean gradient of minibatch bidx (rows of the raw src
// and y) into params' Grad, computed data-parallel over shards, and returns the
// shards the minibatch was cut into, each holding its share of the loss.
func (tm *TrainedModel) batchGrad(shards []trainShard, src Rows, y *tensor.Dense, bidx []int, loss Loss, params []*Param) []trainShard {
	bn := len(bidx)
	// Shard count depends only on the batch size, never on the machine, so
	// shard boundaries (and FP summation order) are reproducible everywhere.
	ns := len(shards)
	if maxS := (bn + minShard - 1) / minShard; ns > maxS {
		ns = maxS
	}
	tensor.ParallelFor(ns, func(a, b int) {
		// A worker walks shards [a, b) one after another, so one tape and
		// one gathered batch serve them all: those of the range's first
		// shard. What each shard keeps to itself is its gradient set.
		w := &shards[a]
		for si := a; si < b; si++ {
			sh := &shards[si]
			sidx := bidx[si*bn/ns : (si+1)*bn/ns]
			w.gather(tm, src, y, sidx)
			pred := tm.Model.Forward(w.ctx, w.in)
			var l float64
			l, w.dpred = loss.Compute(w.dpred, pred, w.y)
			// Scaled by the shard's sample fraction, so the ordered sum of
			// the shards' results equals the full-batch mean.
			frac := float64(len(sidx)) / float64(bn)
			tensor.ScaleInPlace(w.dpred, frac)
			w.ctx.accumulateInto(&sh.grads)
			tm.Model.Backward(w.ctx, w.dpred)
			sh.loss = l * frac
		}
	})
	for si := 0; si < ns; si++ {
		shards[si].grads.flush(params)
	}
	return shards[:ns]
}

// trainShard is one gradient shard's state, kept from step to step. A shard
// owns its gradient accumulators and nothing else: they are reduced in shard
// order whichever worker filled them, which is what makes the trained weights
// independent of GOMAXPROCS. The tape, the buffers a slice of the minibatch
// is gathered into and the loss gradient are working memory of whoever
// evaluates the shard — the first shard of each ParallelFor range lends its
// own to the whole range — so only as many of them ever grow as there are
// workers. Once a worker has seen its largest slice, a training step's
// gather, forward, loss and backward allocate nothing; what a step allocates
// is the fork itself.
type trainShard struct {
	grads gradSet
	loss  float64

	ctx   *Context
	in    Inputs
	y     *tensor.Dense
	dpred *tensor.Dense // the loss gradient; Backward may overwrite it
}

func newTrainShards() []trainShard {
	shards := make([]trainShard, trainShards)
	for i := range shards {
		shards[i].ctx = NewContext()
	}
	return shards
}

// gather copies samples idx of the raw inputs and millisecond targets into
// the shard's buffers and brings the copy to tm's scale: each element gets
// the operation normalising the whole dataset up front would have given it.
func (sh *trainShard) gather(tm *TrainedModel, src Rows, y *tensor.Dense, idx []int) {
	src.GatherInto(&sh.in, idx)
	tm.Norm.ApplyInto(&sh.in, sh.in, tm.Model.Dims())
	sh.y = gatherRows(sh.y, y, idx)
	tensor.ScaleInPlace(sh.y, yScale)
}

// PredictChunk bounds per-evaluation working-set size on the predict path:
// the size of a training shard (Batch 256 over 4 shards), so a context's
// workspace — the chunk's normalised inputs (0.44 MB) and its forward tape
// (1.44 MB, TestTapeFootprint) — is 1.9 MB for a SocialNetwork-sized model
// whatever the dataset. Rows are evaluated independently, so chunking never
// shows in the output.
const PredictChunk = 64

// PredictWithLatent is PredictSharedCtx at W = B on a fresh context: one
// history window per row, trivially safe for concurrent use. Hot paths hold
// a Context and call PredictSharedCtx.
func (tm *TrainedModel) PredictWithLatent(in Inputs) (*tensor.Dense, *tensor.Dense) {
	return tm.PredictSharedCtx(NewContext(), SharedInputs(in))
}

// predict is the full-batch path: in's rows are normalised and forwarded
// PredictChunk at a time, and a LatencyCNN's latent rows are gathered
// beside the predictions. latent is nil for any other regressor.
func (tm *TrainedModel) predict(ctx *Context, in Inputs) (*tensor.Dense, *tensor.Dense) {
	d := tm.Model.Dims()
	n := in.Batch()
	ctx.out = tensor.Ensure(ctx.out, n, d.M)
	cnn, isCNN := tm.Model.(*LatencyCNN)
	var latent *tensor.Dense
	if isCNN {
		ctx.latOut = tensor.Ensure(ctx.latOut, n, cnn.Latent)
		latent = ctx.latOut
	}
	for s := 0; s < n; s += PredictChunk {
		e := s + PredictChunk
		if e > n {
			e = n
		}
		tm.Norm.ApplyInto(&ctx.norm, ctx.chunk(in, s, e), d)
		pred := tm.Model.Forward(ctx, ctx.norm)
		copy(ctx.out.Data[s*d.M:e*d.M], pred.Data)
		if isCNN {
			copy(latent.Data[s*cnn.Latent:e*cnn.Latent], ctx.Latent.Data)
		}
	}
	tensor.ScaleInPlace(ctx.out, 1/yScale)
	return ctx.out, latent
}

// chunk returns row-range views [s, e) of in, reusing the context's view
// headers.
func (c *Context) chunk(in Inputs, s, e int) Inputs {
	slice := func(i int, src *tensor.Dense) *tensor.Dense {
		if c.views[i] == nil {
			c.views[i] = &tensor.Dense{}
		}
		v := c.views[i]
		row := src.Size() / src.Shape[0]
		v.Data = src.Data[s*row : e*row]
		if cap(v.Shape) < len(src.Shape) {
			v.Shape = make([]int, len(src.Shape))
		}
		v.Shape = v.Shape[:len(src.Shape)]
		copy(v.Shape, src.Shape)
		v.Shape[0] = e - s
		return v
	}
	return Inputs{RH: slice(0, in.RH), LH: slice(1, in.LH), RC: slice(2, in.RC)}
}

// RMSE evaluates root-mean-squared error (ms) of the model on a dataset.
func (tm *TrainedModel) RMSE(in Inputs, yMS *tensor.Dense) float64 {
	pred, _ := tm.PredictWithLatent(in)
	s := 0.0
	for i := range pred.Data {
		d := pred.Data[i] - yMS.Data[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred.Data)))
}
