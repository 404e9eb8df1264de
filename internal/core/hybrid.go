// Package core implements Sinan proper: the hybrid ML model of Sec. 3 — a
// CNN short-term latency predictor feeding its latent vector Lf into a
// Boosted Trees long-term violation predictor — and the QoS-aware online
// scheduler of Sec. 4.3 that uses the model to pick the cheapest safe
// per-tier CPU allocation every decision interval.
package core

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"sinan/internal/boost"
	"sinan/internal/dataset"
	"sinan/internal/nn"
	"sinan/internal/tensor"
	"sinan/internal/wire"
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

// fitTrees is the second stage shared by TrainHybrid and rebuildHybrid: it
// evaluates the trained CNN on samples train and val of ds, fits the Boosted
// Trees on Lf ⊕ allocation — with positive-class weighting, so the rare
// violation samples are not drowned out — and calibrates the scheduler
// thresholds on the validation rows.
//
// Each side is forwarded exactly once, on the same workers: the pass that
// yields the latents for the trees also yields the predictions the RMSEs
// are reductions of, and the sub-QoS RMSE is the same reduction over the
// rows that qualify (a row's prediction does not depend on its batch).
func fitTrees(tm *nn.TrainedModel, ds *dataset.Dataset, train, val []int, qosMS float64) (*HybridModel, TrainReport) {
	ws := newFeatureWorkers()
	trX, trY, pred := btFeatures(ws, tm, ds, train)
	rep := TrainReport{
		TrainSamples: len(train),
		ValSamps:     len(val),
		CNNSizeKB:    nn.ModelSizeKB(tm.Model.Params()),
	}
	rep.TrainRMSE, _ = rmse(pred, ds, train, math.Inf(1))
	vaX, vaY, pred := btFeatures(ws, tm, ds, val)
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

// featureWorker is one btFeatures worker's scratch, kept for both sides of
// the split: its forward context and the buffer its rows are gathered into.
type featureWorker struct {
	ctx *nn.Context
	buf nn.Inputs
}

// newFeatureWorkers returns one worker per GOMAXPROCS.
func newFeatureWorkers() []featureWorker {
	ws := make([]featureWorker, runtime.GOMAXPROCS(0))
	for i := range ws {
		ws[i].ctx = nn.NewContext()
	}
	return ws
}

// btFeatures forwards samples rows of ds through the CNN and builds the
// Boosted Trees design matrix: the CNN latent Lf, the candidate allocation
// vector, and the per-tier prospective utilization (latest CPU usage divided
// by the candidate allocation). The utilization features make the classifier
// directly sensitive to the examined allocation, so scale-up candidates
// genuinely lower the predicted violation probability. The rows also yield
// their violation labels and predicted latencies, in the order of the list.
//
// Worker w takes the w-th of len(ws) consecutive ranges of the list and
// writes only its rows' slots. It forwards PredictChunk/len(ws) rows at a
// time, so the workers' contexts together hold one predict chunk's working
// set whatever their number. A row's outputs depend on the row alone, so
// the bits do not depend on the worker count.
func btFeatures(ws []featureWorker, tm *nn.TrainedModel, ds *dataset.Dataset, rows []int) ([][]float64, []bool, []float64) {
	cnn, ok := tm.Model.(*nn.LatencyCNN)
	if !ok {
		panic("core: latency model does not expose a latent vector")
	}
	n, d, nw := len(rows), ds.D, len(ws)
	width, rhRow := cnn.Latent+2*d.N, d.F*d.N*d.T
	X, y := make([][]float64, n), make([]bool, n)
	flat := make([]float64, n*width) // one backing array for all n rows
	pred := make([]float64, n*d.M)
	chunk := (nn.PredictChunk + nw - 1) / nw
	tensor.ParallelFor(nw, func(a, b int) {
		for w := a; w < b; w++ {
			buf := &ws[w].buf
			for s, hi := w*n/nw, (w+1)*n/nw; s < hi; s += chunk {
				e := min(s+chunk, hi)
				ds.GatherInto(buf, rows[s:e])
				p, latent := tm.PredictWithLatentCtx(ws[w].ctx, *buf)
				copy(pred[s*d.M:], p.Data)
				for i := s; i < e; i++ {
					X[i], y[i] = flat[i*width:(i+1)*width:(i+1)*width], ds.YViol[rows[i]]
					k := i - s
					btRowInto(X[i], latent, k, buf.RH.Data[k*rhRow:(k+1)*rhRow], buf.RC.Data[k*d.N:(k+1)*d.N], d)
				}
			}
		}
	})
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

// Predictor is the model interface the scheduler consults: one query over
// a candidate batch plus the metadata its filters need. The query's
// nn.SharedInputs carries W history windows, W = 1 (one window shared by
// every candidate, what the scheduler sends) or W = B (row i reads window
// i, what the lifecycle gate replays). The context carries all per-caller
// evaluation state (implementations must accept nil and allocate a
// throwaway), the answer included: the returned [B, M] latencies (ms) and B
// violation probabilities are owned by ctx and valid until its next use,
// for a remote predictor as for a local one, so a caller that keeps them
// copies and a warmed context makes a query allocate nothing. *HybridModel
// is the production implementation; predsvc.Client is the remote one; tests
// substitute fakes. A non-nil error means the model path is unavailable (RPC
// failure, open circuit breaker, injected outage) — the scheduler then
// falls back to its built-in conservative policy rather than crashing.
type Predictor interface {
	PredictShared(ctx *PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error)
	Meta() ModelMeta
}

// SharedPredictor is the two-method form the benchmark harness still
// embeds: PredictShared beside PredictBatch, the W = B query under its old
// name. *HybridModel and predsvc.Client keep PredictBatch for it as a
// one-line call, which the scheduler never makes. ROADMAP item 7(ii) ports
// the harness off it and 7(iii) deletes it.
type SharedPredictor interface {
	PredictBatch(ctx *PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error)
	PredictShared(ctx *PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error)
}

// ModelMeta is the model metadata the scheduler's filters depend on.
type ModelMeta struct {
	D                nn.Dims
	QoSMS, RMSEValid float64
	Pd, Pu           float64
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
}

// NewPredictContext returns an empty prediction context.
func NewPredictContext() *PredictContext {
	return &PredictContext{NN: nn.NewContext()}
}

// Meta implements the scheduler's Predictor interface.
func (m *HybridModel) Meta() ModelMeta {
	return ModelMeta{D: m.D, QoSMS: m.QoSMS, RMSEValid: m.RMSEValid, Pd: m.Pd, Pu: m.Pu}
}

// PredictShared implements Predictor. At W = 1 the CNN trunk runs once
// with its activations broadcast across the candidate batch, at roughly 1/B
// of the trunk compute, and every Boosted Trees row reads the one window;
// the answer is bit-identical to W = B over that window repeated, which the
// parity tests pin. It returns per-candidate predicted latencies (ms,
// [B, M]) and violation probabilities, both owned by ctx and valid until
// its next use. A nil ctx allocates a throwaway context. The error is
// always nil for an in-process model — it exists so remote predictors
// (predsvc.Client) can surface RPC failures through the same interface.
func (m *HybridModel) PredictShared(ctx *PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	if ctx == nil {
		ctx = NewPredictContext()
	}
	pred, latent := m.Lat.PredictSharedCtx(ctx.NN, in)
	return pred, m.violations(ctx, latent, in), nil
}

// PredictBatch is PredictShared at W = B, kept for SharedPredictor only;
// ROADMAP item 7(iii) deletes it.
func (m *HybridModel) PredictBatch(ctx *PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	return m.PredictShared(ctx, nn.SharedInputs(in))
}

// violations scores in's B candidates on the Boosted Trees into ctx.PViol.
// Candidate i reads window i mod W: its own at W = B, the one at W = 1.
func (m *HybridModel) violations(ctx *PredictContext, latent *tensor.Dense, in nn.SharedInputs) []float64 {
	win, w, b := m.D.F*m.D.N*m.D.T, in.Windows(), in.Batch()
	if cap(ctx.PViol) < b {
		ctx.PViol = make([]float64, b)
	}
	need := latent.Shape[1] + 2*m.D.N
	if cap(ctx.row) < need {
		ctx.row = make([]float64, need)
	}
	pv, row, rh, rc := ctx.PViol[:b], ctx.row[:need], in.RH.Data, in.RC.Data
	for i := range pv {
		k := i % w
		btRowInto(row, latent, i, rh[k*win:(k+1)*win], rc[i*m.D.N:(i+1)*m.D.N], m.D)
		pv[i] = m.Viol.PredictProb(row)
	}
	return pv
}

// rebuildHybrid constructs a hybrid model around an existing (typically
// fine-tuned) latency CNN: the Boosted Trees stage is retrained on the
// CNN's latents over the given dataset and the scheduler thresholds are
// recalibrated. This is the transfer-learning path of Sec. 5.4/5.5 — the
// CNN adapts with a small learning rate, the cheap BT is refit outright.
func rebuildHybrid(tm *nn.TrainedModel, ds *dataset.Dataset, qosMS float64) *HybridModel {
	train, val := splitRows(ds, 17)
	m, _ := fitTrees(tm, ds, train, val, qosMS)
	return m
}

// ViolationError returns the BT misclassification rate (threshold 0.5) on
// a dataset, using the hybrid's own latent features.
func (m *HybridModel) ViolationError(ds *dataset.Dataset) float64 {
	X, y, _ := btFeatures(newFeatureWorkers(), m.Lat, ds, nn.AllRows(ds.Len()))
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
	tuned := m.Lat.Clone()
	tuned.FineTune(newData.Inputs(), newData.Targets(), nn.TrainConfig{
		Epochs: opts.Epochs, Batch: 128, LR: opts.LR,
		QoSMS: m.QoSMS, Seed: opts.Seed,
	})
	out := rebuildHybrid(tuned, newData, m.QoSMS)
	out.K = m.K
	return out
}

// Encode renders the hybrid model as payload bytes, little-endian: the
// CNN (nn.AppendModel), the trees (boost.Model.Append), then K (u32) and
// QoSMS, RMSEValid, Pd, Pu (f64). The bytes are a function of the model.
// This is the raw payload form; the versioned, checksummed artifact
// envelope around it — the only form that goes to disk — lives in
// internal/lifecycle.
func (m *HybridModel) Encode() ([]byte, error) {
	b, err := nn.AppendModel(nil, m.Lat)
	if err != nil {
		return nil, err
	}
	b = wire.AppendU32(m.Viol.Append(b), m.K)
	return wire.AppendF64(b, m.QoSMS, m.RMSEValid, m.Pd, m.Pu), nil
}

// DecodeHybrid decodes what Encode wrote. Corrupt input yields an error,
// never a panic: the CNN and tree readers check every size against the
// bytes left and validate shapes and indices before building anything, the
// trees must read the features the CNN hands them, and no byte may be left
// over.
func DecodeHybrid(payload []byte) (*HybridModel, error) {
	r := wire.NewReader(payload)
	tm, err := nn.ReadModel(r)
	if err != nil {
		return nil, err
	}
	bt, err := boost.ReadModel(r)
	if err != nil {
		return nil, err
	}
	m := &HybridModel{Lat: tm, Viol: bt, D: tm.Model.Dims(), K: int(r.U32())}
	m.QoSMS, m.RMSEValid, m.Pd, m.Pu = r.F64(), r.F64(), r.F64(), r.F64()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("core: hybrid model: %w", err)
	}
	cnn, ok := tm.Model.(*nn.LatencyCNN)
	if !ok || bt.Dim != cnn.Latent+2*m.D.N {
		return nil, fmt.Errorf("core: hybrid model: trees over %d features behind a %T of dims %+v", bt.Dim, tm.Model, m.D)
	}
	return m, nil
}
