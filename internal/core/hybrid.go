// Package core implements Sinan proper: the hybrid ML model of Sec. 3 — a
// CNN short-term latency predictor feeding its latent vector Lf into a
// Boosted Trees long-term violation predictor — and the QoS-aware online
// scheduler of Sec. 4.3 that uses the model to pick the cheapest safe
// per-tier CPU allocation every decision interval.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"sinan/internal/boost"
	"sinan/internal/dataset"
	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// HybridModel bundles the two-stage predictor: the CNN estimates the next
// interval's tail latencies (p95–p99) and exposes the latent Lf; the
// Boosted Trees classifier maps Lf ⊕ candidate allocation to the probability
// of a QoS violation within the next K intervals.
type HybridModel struct {
	Lat   *nn.TrainedModel
	Viol  *boost.Model
	D     nn.Dims
	K     int
	QoSMS float64

	// Validation statistics used by the scheduler's filters (Sec. 4.3).
	RMSEValid float64
	Pd, Pu    float64
}

// TrainReport summarises hybrid training, mirroring Tables 2 and 3.
type TrainReport struct {
	TrainRMSE, ValRMSE float64 // CNN, ms, whole validation set
	// ValRMSESubQoS is the validation RMSE restricted to samples whose true
	// p99 is below QoS — the accuracy that matters for the scheduler's
	// latency filter, and the margin it subtracts from the QoS target.
	ValRMSESubQoS          float64
	CNNSizeKB              float64
	TrainAcc, ValAcc       float64 // Boosted Trees
	ValFPR, ValFNR         float64
	NumTrees               int
	TrainSamples, ValSamps int
}

// TrainOptions controls hybrid training.
type TrainOptions struct {
	Seed   int64
	Epochs int
	Batch  int
	LR     float64
	Latent int
	Log    io.Writer
}

// trainFrac is the share of a dataset the hybrid trains on; the rest
// validates (the 9:1 split of Sec. 5.1).
const trainFrac = 0.9

// treeConfig is the Boosted Trees stage's training config.
var treeConfig = boost.Config{NumTrees: 200, MaxDepth: 5, EarlyStopping: 25}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs <= 0 {
		o.Epochs = 12
	}
	if o.Batch <= 0 {
		o.Batch = 256
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	if o.Latent <= 0 {
		o.Latent = 32
	}
	return o
}

// TrainHybrid fits the CNN and then the Boosted Trees on the CNN's latent
// features (Sec. 3.2: "we first train the CNN and then BT using the
// extracted latent variable"), splitting the dataset 9:1 into train and
// validation after shuffling (Sec. 5.1). The scheduler thresholds p_u and
// p_d are calibrated on the validation split so false negatives stay ≤ 1%.
func TrainHybrid(ds *dataset.Dataset, qosMS float64, opts TrainOptions) (*HybridModel, TrainReport) {
	opts = opts.withDefaults()
	train, val := splitRows(ds, opts.Seed)

	cnn := nn.NewLatencyCNN(rand.New(rand.NewSource(opts.Seed)), ds.D, opts.Latent)
	tm := nn.TrainRows(cnn, ds, ds.Targets(), train, nn.TrainConfig{
		Epochs: opts.Epochs, Batch: opts.Batch, LR: opts.LR,
		QoSMS: qosMS, Seed: opts.Seed, Log: opts.Log,
	})
	return fitTrees(tm, ds, train, val, qosMS)
}

// splitRows is ds.SplitRows at trainFrac refusing an empty side: nothing to
// train on, or a NaN RMSEValid that would switch the scheduler's latency
// filters off.
func splitRows(ds *dataset.Dataset, seed int64) (train, val []int) {
	train, val = ds.SplitRows(trainFrac, seed)
	if len(train) == 0 || len(val) == 0 {
		panic(fmt.Sprintf("core: train fraction %v of %d samples leaves %d train and %d validation samples", trainFrac, ds.Len(), len(train), len(val)))
	}
	return train, val
}

// fitTrees is the second stage shared by TrainHybrid and RebuildHybrid: it
// evaluates the trained CNN on samples train and val of ds, fits the Boosted
// Trees on Lf ⊕ allocation — with positive-class weighting, so the rare
// violation samples are not drowned out — and calibrates the scheduler
// thresholds on the validation rows.
//
// Each side is forwarded exactly once, on one reused context: the pass that
// yields the latents for the trees also yields the predictions the RMSEs
// are reductions of, and the sub-QoS RMSE is the same reduction over the
// rows that qualify (a row's prediction does not depend on its batch).
func fitTrees(tm *nn.TrainedModel, ds *dataset.Dataset, train, val []int, qosMS float64) (*HybridModel, TrainReport) {
	ctx, buf := nn.NewContext(), &nn.Inputs{}
	trX, trY, pred := btFeatures(ctx, buf, tm, ds, train)
	rep := TrainReport{
		TrainSamples: len(train),
		ValSamps:     len(val),
		CNNSizeKB:    nn.ModelSizeKB(tm.Model.Params()),
	}
	rep.TrainRMSE, _ = rmse(pred, ds, train, math.Inf(1))
	vaX, vaY, pred := btFeatures(ctx, buf, tm, ds, val)
	rep.ValRMSE, _ = rmse(pred, ds, val, math.Inf(1))
	rep.ValRMSESubQoS = rep.ValRMSE
	if sub, n := rmse(pred, ds, val, qosMS); n > 0 {
		rep.ValRMSESubQoS = sub
	}

	treeCfg := treeConfig
	pos := 0
	for _, v := range trY {
		if v {
			pos++
		}
	}
	if pos > 0 && pos < len(trY) {
		treeCfg.PosWeight = float64(len(trY)-pos) / float64(pos)
	}
	bt := boost.Train(trX, trY, treeCfg, vaX, vaY)
	rep.TrainAcc = 1 - bt.ErrorRate(trX, trY)
	rep.ValAcc = 1 - bt.ErrorRate(vaX, vaY)
	rep.ValFPR, rep.ValFNR = bt.Confusion(vaX, vaY)
	rep.NumTrees = bt.NumTrees()

	m := &HybridModel{
		Lat: tm, Viol: bt, D: ds.D, K: ds.K, QoSMS: qosMS,
		RMSEValid: rep.ValRMSESubQoS,
	}
	m.Pd, m.Pu = calibrateThresholds(bt, vaX, vaY)
	return m, rep
}

// rmse reduces one forward pass (pred, in ms, for samples rows of ds) to
// the root-mean-squared error over the samples whose true next-interval p99
// is at most maxP99, and reports how many qualified. It sums in the order of
// rows, as nn.TrainedModel.RMSE does over the same subset.
func rmse(pred []float64, ds *dataset.Dataset, rows []int, maxP99 float64) (float64, int) {
	m := ds.D.M
	s, n := 0.0, 0
	for k, i := range rows {
		y := ds.YLat[i*m : (i+1)*m]
		if y[m-1] > maxP99 {
			continue
		}
		for j, p := range pred[k*m : (k+1)*m] {
			d := p - y[j]
			s += d * d
		}
		n++
	}
	return math.Sqrt(s / float64(n*m)), n
}

// btFeatures forwards samples rows of ds through the CNN on ctx and builds
// the Boosted Trees design matrix: the CNN latent Lf, the candidate
// allocation vector, and the per-tier prospective utilization (latest CPU
// usage divided by the candidate allocation). The utilization features make
// the classifier directly sensitive to the examined allocation, so scale-up
// candidates genuinely lower the predicted violation probability. The rows,
// gathered into buf one predict chunk at a time, also yield their violation
// labels and predicted latencies, in the order of the list.
func btFeatures(ctx *nn.Context, buf *nn.Inputs, tm *nn.TrainedModel, ds *dataset.Dataset, rows []int) ([][]float64, []bool, []float64) {
	cnn, ok := tm.Model.(*nn.LatencyCNN)
	if !ok {
		panic("core: latency model does not expose a latent vector")
	}
	n, d := len(rows), ds.D
	width, rhRow := cnn.Latent+2*d.N, d.F*d.N*d.T
	X, y := make([][]float64, n), make([]bool, n)
	flat := make([]float64, n*width) // one backing array for all n rows
	pred := make([]float64, n*d.M)
	for s := 0; s < n; s += nn.PredictChunk {
		e := min(s+nn.PredictChunk, n)
		ds.GatherInto(buf, rows[s:e])
		p, latent := tm.PredictWithLatentCtx(ctx, *buf)
		copy(pred[s*d.M:], p.Data)
		for i := s; i < e; i++ {
			X[i], y[i] = flat[i*width:(i+1)*width:(i+1)*width], ds.YViol[rows[i]]
			k := i - s
			btRowInto(X[i], latent, k, buf.RH.Data[k*rhRow:(k+1)*rhRow], buf.RC.Data[k*d.N:(k+1)*d.N], d)
		}
	}
	return X, y, pred
}

// btRowInto fills a caller-owned BT feature row for candidate i: the CNN
// latent, the candidate allocation rc, and the per-tier prospective
// utilization read from the candidate's raw history window rhWin ([F,N,T]
// flattened). row must have length latent width + 2N. Taking the window as
// a per-sample slice lets the full-batch path (one window per row) and the
// shared-history path (one window for all rows) share this code.
func btRowInto(row []float64, latent *tensor.Dense, i int, rhWin, rc []float64, d nn.Dims) {
	l := latent.Shape[1]
	copy(row, latent.Data[i*l:(i+1)*l])
	copy(row[l:], rc)
	for t := 0; t < d.N; t++ {
		// CPU-usage channel, latest timestep, of the [F,N,T] window.
		usage := rhWin[(dataset.ChanCPUUsage*d.N+t)*d.T+d.T-1]
		alloc := rc[t]
		if alloc < 1e-9 {
			alloc = 1e-9
		}
		row[l+d.N+t] = usage / alloc
	}
}

// minCalibViolations is the fewest validation violation samples for which
// the 1%-false-negative quantile is trusted; below it calibrateThresholds
// keeps the 0.25/0.5 defaults.
const minCalibViolations = 100

// calibrateThresholds picks p_u as the largest threshold keeping validation
// false negatives at or below 1% of violation samples (Sec. 4.3), and p_d
// below it to favour stable allocations.
func calibrateThresholds(bt *boost.Model, X [][]float64, y []bool) (pd, pu float64) {
	var violProbs []float64
	for i, x := range X {
		if y[i] {
			violProbs = append(violProbs, bt.PredictProb(x))
		}
	}
	// The 1%-FN quantile needs at least 100 violation samples to be a
	// quantile at all: below that the index truncates to 0 and p_u becomes
	// the single lowest predicted probability — one mislabeled sample drags
	// it to the floor and freezes reclamation for the model's lifetime. With
	// too few violations the defaults are the honest choice.
	if len(violProbs) < minCalibViolations {
		return 0.25, 0.5
	}
	sort.Float64s(violProbs)
	// Threshold under which ≤1% of true violations fall. A noisy classifier
	// would drive this to zero and freeze all reclamation, so the threshold
	// is floored: below it the scheduler's runtime safety net (emergency
	// upscale on unpredicted violations) carries the residual risk.
	idx := len(violProbs) / 100
	pu = violProbs[idx]
	if pu < 0.15 {
		pu = 0.15
	}
	if pu > 0.9 {
		pu = 0.9
	}
	pd = pu / 2
	return pd, pu
}

// PredictContext owns the per-caller scratch a hybrid prediction needs:
// the CNN evaluation context plus the BT probability and feature-row
// buffers. A trained HybridModel is immutable, so one instance is shared
// by any number of goroutines, each holding its own PredictContext. A
// PredictContext is not safe for concurrent use.
//
// A predictor's answer lives in the context it was given and stays valid
// until the context's next use. PViol holds the violation probabilities
// of every predictor; Lat is the latency tensor of one whose answer is
// computed elsewhere — predsvc.Client decodes its reply into both — while
// HybridModel's lives in NN.
type PredictContext struct {
	NN    *nn.Context
	Lat   *tensor.Dense
	PViol []float64
	row   []float64

	// expand holds the materialised full-batch form of shared-history
	// inputs for predictors without a PredictShared fast path (see
	// PredictSharedAuto).
	expand nn.Inputs
}

// NewPredictContext returns an empty prediction context.
func NewPredictContext() *PredictContext {
	return &PredictContext{NN: nn.NewContext()}
}

// Meta implements the scheduler's Predictor interface.
func (m *HybridModel) Meta() ModelMeta {
	return ModelMeta{D: m.D, QoSMS: m.QoSMS, RMSEValid: m.RMSEValid, Pd: m.Pd, Pu: m.Pu}
}

// PredictBatch evaluates candidate allocations sharing one history window:
// inputs must already be assembled as a batch with identical RH/LH rows and
// per-candidate RC rows. It returns per-candidate predicted latencies (ms,
// [B, M]) and violation probabilities, both owned by ctx and valid until
// its next use. A nil ctx allocates a throwaway context. The error is
// always nil for an in-process model — it exists so remote predictors
// (predsvc.Client) can surface RPC failures through the same interface.
func (m *HybridModel) PredictBatch(ctx *PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	if ctx == nil {
		ctx = NewPredictContext()
	}
	pred, latent := m.Lat.PredictWithLatentCtx(ctx.NN, in)
	b := in.Batch()
	if cap(ctx.PViol) < b {
		ctx.PViol = make([]float64, b)
	}
	pv := ctx.PViol[:b]
	need := latent.Shape[1] + 2*m.D.N
	if cap(ctx.row) < need {
		ctx.row = make([]float64, need)
	}
	row := ctx.row[:need]
	rhRow := m.D.F * m.D.N * m.D.T
	for i := 0; i < b; i++ {
		btRowInto(row, latent, i, in.RH.Data[i*rhRow:(i+1)*rhRow], in.RC.Data[i*m.D.N:(i+1)*m.D.N], m.D)
		pv[i] = m.Viol.PredictProb(row)
	}
	return pred, pv, nil
}

// PredictShared is the deduplicated form of PredictBatch: the history
// window arrives once ([1,F,N,T] / [1,T,M]) with per-candidate allocations
// [B,N], the CNN trunk runs once with its activations broadcast across the
// candidate batch, and the Boosted Trees rows read the one shared window.
// Outputs are bit-identical to PredictBatch on the expanded batch — the
// parity tests pin that — at roughly 1/B of the trunk compute. Ownership
// and error semantics match PredictBatch.
func (m *HybridModel) PredictShared(ctx *PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	if ctx == nil {
		ctx = NewPredictContext()
	}
	pred, latent := m.Lat.PredictSharedCtx(ctx.NN, in)
	b := in.Batch()
	if cap(ctx.PViol) < b {
		ctx.PViol = make([]float64, b)
	}
	pv := ctx.PViol[:b]
	need := latent.Shape[1] + 2*m.D.N
	if cap(ctx.row) < need {
		ctx.row = make([]float64, need)
	}
	row := ctx.row[:need]
	for i := 0; i < b; i++ {
		btRowInto(row, latent, i, in.RH.Data, in.RC.Data[i*m.D.N:(i+1)*m.D.N], m.D)
		pv[i] = m.Viol.PredictProb(row)
	}
	return pred, pv, nil
}

// RebuildHybrid constructs a hybrid model around an existing (typically
// fine-tuned) latency CNN: the Boosted Trees stage is retrained on the
// CNN's latents over the given dataset and the scheduler thresholds are
// recalibrated. This is the transfer-learning path of Sec. 5.4/5.5 — the
// CNN adapts with a small learning rate, the cheap BT is refit outright.
func RebuildHybrid(tm *nn.TrainedModel, ds *dataset.Dataset, qosMS float64) *HybridModel {
	train, val := splitRows(ds, 17)
	m, _ := fitTrees(tm, ds, train, val, qosMS)
	return m
}

// ViolationError returns the BT misclassification rate (threshold 0.5) on
// a dataset, using the hybrid's own latent features.
func (m *HybridModel) ViolationError(ds *dataset.Dataset) float64 {
	X, y, _ := btFeatures(nn.NewContext(), &nn.Inputs{}, m.Lat, ds, nn.AllRows(ds.Len()))
	return m.Viol.ErrorRate(X, y)
}

// RetrainOptions controls incremental retraining.
type RetrainOptions struct {
	Epochs int     // fine-tuning epochs (0 = 12)
	LR     float64 // fine-tuning learning rate (0 = base lr / 100, per Sec. 5.4)
	Seed   int64
}

func (o RetrainOptions) withDefaults() RetrainOptions {
	if o.Epochs <= 0 {
		o.Epochs = 12
	}
	if o.LR == 0 {
		o.LR = 0.01 / 100
	}
	return o
}

// Retrain incrementally adapts the hybrid to newly-collected data from a
// changed deployment (new platform, replica count, or application version —
// Sec. 5.4): the CNN is fine-tuned with a 100×-smaller learning rate so the
// solution stays near the original weights, and the Boosted Trees stage is
// refit on the adapted latents. The receiver is not modified; a new model
// is returned so the caller (or a prediction service) can swap atomically.
func (m *HybridModel) Retrain(newData *dataset.Dataset, opts RetrainOptions) *HybridModel {
	opts = opts.withDefaults()
	var buf bytes.Buffer
	if err := nn.Save(&buf, m.Lat); err != nil {
		panic(err)
	}
	tuned, err := nn.Load(&buf)
	if err != nil {
		panic(err)
	}
	tuned.FineTune(newData.Inputs(), newData.Targets(), nn.TrainConfig{
		Epochs: opts.Epochs, Batch: 128, LR: opts.LR,
		QoSMS: m.QoSMS, Seed: opts.Seed,
	})
	out := RebuildHybrid(tuned, newData, m.QoSMS)
	out.K = m.K
	return out
}

// hybridBlob is the gob wire format for a hybrid model. The CNN and BT are
// nested as opaque byte blobs so each keeps its own encoding.
type hybridBlob struct {
	Lat, Viol        []byte
	K                int
	QoSMS, RMSEValid float64
	Pd, Pu           float64
}

// Encode writes the hybrid model (CNN, BT, thresholds) to w as gob. This is
// the raw payload form; the versioned, checksummed artifact envelope around
// it — the only form that goes to disk — lives in internal/lifecycle.
func (m *HybridModel) Encode(w io.Writer) error {
	var latBuf, violBuf bytes.Buffer
	if err := nn.Save(&latBuf, m.Lat); err != nil {
		return err
	}
	if err := m.Viol.Save(&violBuf); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(hybridBlob{
		Lat: latBuf.Bytes(), Viol: violBuf.Bytes(),
		K: m.K, QoSMS: m.QoSMS, RMSEValid: m.RMSEValid, Pd: m.Pd, Pu: m.Pu,
	})
}

// DecodeHybrid reads a model written with Encode. Corrupt input yields an
// error, never a panic: the nested CNN and BT loaders validate shapes and
// indices before constructing anything.
func DecodeHybrid(r io.Reader) (*HybridModel, error) {
	var blob hybridBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("core: decoding hybrid blob: %w", err)
	}
	tm, err := nn.Load(bytes.NewReader(blob.Lat))
	if err != nil {
		return nil, err
	}
	bt, err := boost.LoadModel(bytes.NewReader(blob.Viol))
	if err != nil {
		return nil, err
	}
	return &HybridModel{
		Lat: tm, Viol: bt, D: tm.Model.Dims(),
		K: blob.K, QoSMS: blob.QoSMS, RMSEValid: blob.RMSEValid,
		Pd: blob.Pd, Pu: blob.Pu,
	}, nil
}
