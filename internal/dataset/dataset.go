// Package dataset defines Sinan's training-sample schema and assembles
// samples from live run traces. Each sample pairs the model inputs of
// Sec. 3.1 — the per-tier resource-usage history image X_RH, the latency
// -percentile history X_LH, and the candidate next-step allocation X_RC —
// with two targets: the next interval's tail-latency percentiles (CNN
// target) and whether a QoS violation occurs within the next K intervals
// (Boosted Trees target).
package dataset

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"sinan/internal/cluster"
	"sinan/internal/metrics"
	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// Dataset is a flat-packed collection of samples.
type Dataset struct {
	D nn.Dims
	K int // violation lookahead in decision intervals

	RH    []float64 // n × F·N·T
	LH    []float64 // n × T·M
	RC    []float64 // n × N
	YLat  []float64 // n × M, next-interval percentiles (ms)
	YViol []bool    // n, violation within next K intervals
	Count int
}

// New creates an empty dataset for the given dimensions and lookahead.
func New(d nn.Dims, k int) *Dataset { return &Dataset{D: d, K: k} }

// Len returns the number of samples.
func (ds *Dataset) Len() int { return ds.Count }

func (ds *Dataset) rowSizes() (rh, lh, rc int) {
	return ds.D.F * ds.D.N * ds.D.T, ds.D.T * ds.D.M, ds.D.N
}

// Append adds one sample; slices are copied.
func (ds *Dataset) Append(rh, lh, rc, ylat []float64, yviol bool) {
	rhN, lhN, rcN := ds.rowSizes()
	if len(rh) != rhN || len(lh) != lhN || len(rc) != rcN || len(ylat) != ds.D.M {
		panic(fmt.Sprintf("dataset: sample sizes %d/%d/%d/%d, want %d/%d/%d/%d",
			len(rh), len(lh), len(rc), len(ylat), rhN, lhN, rcN, ds.D.M))
	}
	ds.RH = append(ds.RH, rh...)
	ds.LH = append(ds.LH, lh...)
	ds.RC = append(ds.RC, rc...)
	ds.YLat = append(ds.YLat, ylat...)
	ds.YViol = append(ds.YViol, yviol)
	ds.Count++
}

// AppendFrom copies all samples of other (same dims) into ds.
func (ds *Dataset) AppendFrom(other *Dataset) {
	if other.D != ds.D {
		panic("dataset: dims mismatch in AppendFrom")
	}
	ds.RH = append(ds.RH, other.RH...)
	ds.LH = append(ds.LH, other.LH...)
	ds.RC = append(ds.RC, other.RC...)
	ds.YLat = append(ds.YLat, other.YLat...)
	ds.YViol = append(ds.YViol, other.YViol...)
	ds.Count += other.Count
}

// Inputs returns the dataset as model input tensors. They are views over the
// dataset's own storage, not copies: read-only to the caller (training and
// prediction normalise into buffers of their own), and covering the samples
// present at the time of the call.
func (ds *Dataset) Inputs() nn.Inputs {
	return nn.Inputs{
		RH: tensor.FromSlice(ds.RH, ds.Count, ds.D.F, ds.D.N, ds.D.T),
		LH: tensor.FromSlice(ds.LH, ds.Count, ds.D.T, ds.D.M),
		RC: tensor.FromSlice(ds.RC, ds.Count, ds.D.N),
	}
}

// Targets returns the latency targets as a [n, M] tensor (ms): a read-only
// view, like Inputs.
func (ds *Dataset) Targets() *tensor.Dense {
	return tensor.FromSlice(ds.YLat, ds.Count, ds.D.M)
}

// P99s returns the per-sample next-interval p99 (the last percentile column).
func (ds *Dataset) P99s() []float64 {
	out := make([]float64, ds.Count)
	for i := 0; i < ds.Count; i++ {
		out[i] = ds.YLat[i*ds.D.M+ds.D.M-1]
	}
	return out
}

// ViolationRate returns the fraction of samples labelled as violations.
func (ds *Dataset) ViolationRate() float64 {
	if ds.Count == 0 {
		return 0
	}
	v := 0
	for _, b := range ds.YViol {
		if b {
			v++
		}
	}
	return float64(v) / float64(ds.Count)
}

// Select returns a new dataset containing the given sample indices.
func (ds *Dataset) Select(idx []int) *Dataset {
	out := New(ds.D, ds.K)
	rhN, lhN, rcN := ds.rowSizes()
	out.RH = make([]float64, 0, len(idx)*rhN)
	out.LH = make([]float64, 0, len(idx)*lhN)
	out.RC = make([]float64, 0, len(idx)*rcN)
	out.YLat = make([]float64, 0, len(idx)*ds.D.M)
	out.YViol = make([]bool, 0, len(idx))
	for _, i := range idx {
		out.Append(
			ds.RH[i*rhN:(i+1)*rhN],
			ds.LH[i*lhN:(i+1)*lhN],
			ds.RC[i*rcN:(i+1)*rcN],
			ds.YLat[i*ds.D.M:(i+1)*ds.D.M],
			ds.YViol[i],
		)
	}
	return out
}

// SplitRows shuffles the sample indices with the given seed and cuts them
// into train/validation rows at the given train fraction (the paper uses
// 9:1): the one definition of the split, which training reads in place.
func (ds *Dataset) SplitRows(trainFrac float64, seed int64) (train, val []int) {
	idx := rand.New(rand.NewSource(seed)).Perm(ds.Count)
	cut := int(float64(ds.Count) * trainFrac)
	return idx[:cut:cut], idx[cut:]
}

// Split is SplitRows with each side copied into a dataset of its own.
func (ds *Dataset) Split(trainFrac float64, seed int64) (train, val *Dataset) {
	tr, va := ds.SplitRows(trainFrac, seed)
	return ds.Select(tr), ds.Select(va)
}

// FilterByP99 returns the subset of samples whose next-interval p99 is at
// most maxMS — the dataset-truncation sweep of Fig. 9.
func (ds *Dataset) FilterByP99(maxMS float64) *Dataset {
	var idx []int
	p99s := ds.P99s()
	for i, v := range p99s {
		if v <= maxMS {
			idx = append(idx, i)
		}
	}
	return ds.Select(idx)
}

// LatencyCDF returns (sorted p99 values, cumulative fractions) for plotting
// the training-set latency distribution (Fig. 9, left).
func (ds *Dataset) LatencyCDF() ([]float64, []float64) {
	vals := ds.P99s()
	sort.Float64s(vals)
	fracs := make([]float64, len(vals))
	for i := range vals {
		fracs[i] = float64(i+1) / float64(len(vals))
	}
	return vals, fracs
}

// Save writes the dataset as gob.
func (ds *Dataset) Save(w io.Writer) error { return gob.NewEncoder(w).Encode(ds) }

// Load reads a dataset saved with Save. Input whose slices do not hold
// exactly Count samples of its dimensions is an error, never a later panic.
func Load(r io.Reader) (*Dataset, error) {
	var ds Dataset
	if err := gob.NewDecoder(r).Decode(&ds); err != nil {
		return nil, err
	}
	d := ds.D
	if d.N <= 0 || d.T <= 0 || d.F <= 0 || d.M <= 0 || ds.K < 0 ||
		!holds(len(ds.RH), ds.Count, d.F, d.N, d.T) || !holds(len(ds.LH), ds.Count, d.T, d.M) ||
		!holds(len(ds.RC), ds.Count, d.N) || !holds(len(ds.YLat), ds.Count, d.M) || len(ds.YViol) != ds.Count {
		return nil, fmt.Errorf("dataset: %d samples of dims %+v (K %d) do not match slice lengths %d/%d/%d/%d/%d",
			ds.Count, d, ds.K, len(ds.RH), len(ds.LH), len(ds.RC), len(ds.YLat), len(ds.YViol))
	}
	return &ds, nil
}

// holds reports whether n elements are exactly count rows of the given
// positive shape, dividing so that no product can overflow.
func holds(n, count int, shape ...int) bool {
	ok := true
	for _, s := range shape {
		ok, n = ok && n%s == 0, n/s
	}
	return ok && n == count
}

// SaveFile / LoadFile are file-path conveniences for the CLI tools.
func (ds *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return ds.Save(f)
}

// LoadFile reads a dataset from a file.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Recorder assembles samples from a live (or simulated) run. Call Observe
// once per decision interval with that interval's per-tier stats, its
// end-to-end latency percentiles, and the allocation chosen for the NEXT
// interval; completed samples are appended to Out as their future targets
// materialise.
type Recorder struct {
	Out   *Dataset
	QoSMS float64
	// ClipMS caps recorded latency percentiles (inputs and targets). The
	// exploration process keeps the system inside [0, QoS+α], so latencies
	// far past the boundary are tail noise (timeouts, drops) that would
	// otherwise dominate the squared error; the paper's datasets are
	// likewise bounded (Fig. 9 spans ≈2×QoS). Violation labels are decided
	// BEFORE clipping. 0 disables clipping.
	ClipMS float64

	statHist *metrics.History[[]float64] // flattened per-interval [F·N] features
	latHist  *metrics.History[[]float64] // per-interval [M] percentiles
	pending  []*pendingSample
	free     []*pendingSample // resolved samples, their buffers reused by the next ones
}

type pendingSample struct {
	rh, lh, rc []float64
	ylat       []float64
	viol       bool
	remaining  int // future intervals still to observe
	needLat    bool
}

// NewRecorder creates a recorder writing into out, clipping latencies at
// 2.5× the QoS target.
func NewRecorder(out *Dataset, qosMS float64) *Recorder {
	return &Recorder{
		Out:      out,
		QoSMS:    qosMS,
		ClipMS:   2.5 * qosMS,
		statHist: metrics.NewHistory[[]float64](out.D.T),
		latHist:  metrics.NewHistory[[]float64](out.D.T),
	}
}

func (r *Recorder) clip(v float64) float64 {
	if r.ClipMS > 0 && v > r.ClipMS {
		return r.ClipMS
	}
	return v
}

// Observe ingests one decision interval. stats must have N entries; perc is
// the interval's latency summary; nextAlloc is the per-tier CPU allocation
// that will be in force during the NEXT interval.
func (r *Recorder) Observe(stats []cluster.Stats, perc metrics.Percentiles, nextAlloc []float64) {
	d := r.Out.D
	if len(stats) != d.N || len(nextAlloc) != d.N {
		panic("dataset: recorder tier-count mismatch")
	}

	violated := perc.P99() > r.QoSMS || perc.Drops > 0

	// Resolve pending samples with this interval's outcome.
	kept := r.pending[:0]
	for _, p := range r.pending {
		if p.needLat {
			for i, v := range perc.Values {
				p.ylat[i] = r.clip(v)
			}
			p.needLat = false
		}
		if violated {
			p.viol = true
		}
		p.remaining--
		if p.remaining <= 0 {
			r.Out.Append(p.rh, p.lh, p.rc, p.ylat, p.viol) // copies the slices
			r.free = append(r.free, p)
		} else {
			kept = append(kept, p)
		}
	}
	r.pending = kept

	// Record this interval into the history windows.
	PushWindow(r.statHist, r.latHist, d, stats, perc, r.ClipMS)

	if !r.statHist.Full() {
		return
	}

	// Create a new pending sample keyed on the next interval's allocation.
	var p *pendingSample
	if n := len(r.free); n > 0 {
		p, r.free = r.free[n-1], r.free[:n-1]
		clear(p.ylat)
	} else {
		p = &pendingSample{ylat: make([]float64, d.M)}
	}
	p.rh, p.lh = WindowInputsInto(p.rh, p.lh, d, r.statHist, r.latHist)
	p.rc = append(p.rc[:0], nextAlloc...)
	p.viol, p.remaining, p.needLat = false, r.Out.K, true
	r.pending = append(r.pending, p)
}

// PushWindow records one decision interval into a pair of history rings:
// the flattened [F·N] stats features and the [M] latency percentiles,
// clipped at clipMS (0 disables clipping). This is the single definition
// of the model's input windowing, shared by the training-data Recorder
// and the online scheduler — the two must clip and pack identically or
// deployment inputs drift off the training distribution.
func PushWindow(statHist, latHist *metrics.History[[]float64], d nn.Dims,
	stats []cluster.Stats, perc metrics.Percentiles, clipMS float64) {
	statHist.Push(FlattenStats(stats, d))
	lat := make([]float64, d.M)
	for i, v := range perc.Values {
		if clipMS > 0 && v > clipMS {
			v = clipMS
		}
		lat[i] = v
	}
	latHist.Push(lat)
}

// Resource-channel indices of the RH feature layout: channel f of the
// [F,N,T] history image holds cluster.Stats.Features()[f]. These are the
// single authority for "which channel is which" — consumers that need a
// specific channel (core.btRowInto reads the CPU-usage plane) must index
// through them so the model-input assembly here and the feature extraction
// there cannot drift apart.
const (
	ChanCPUUsage = iota
	ChanCPULimit
	ChanRSS
	ChanCache
	ChanNetRx
	ChanNetTx
)

// FlattenStats packs one interval's per-tier stats into the [F·N] feature
// layout shared by the recorder and the online scheduler.
func FlattenStats(stats []cluster.Stats, d nn.Dims) []float64 {
	if d.F > cluster.NumStatFeatures {
		panic("dataset: dims.F exceeds available stat features")
	}
	feat := make([]float64, d.F*d.N)
	for n, s := range stats {
		fs := s.Features()
		for f := 0; f < d.F; f++ {
			feat[f*d.N+n] = fs[f]
		}
	}
	return feat
}

// WindowInputsInto assembles the model input rows (X_RH flattened as [F,N,T]
// and X_LH as [T,M]) from full history rings of flattened interval features
// and latency percentiles, writing into caller-owned buffers that are grown
// when their capacity is insufficient: callers assembling inputs every
// decision interval allocate nothing.
func WindowInputsInto(rh, lh []float64, d nn.Dims, statHist, latHist *metrics.History[[]float64]) ([]float64, []float64) {
	if n := d.F * d.N * d.T; cap(rh) < n {
		rh = make([]float64, n)
	} else {
		rh = rh[:n]
	}
	for t := 0; t < d.T; t++ {
		snap := statHist.At(t)
		for f := 0; f < d.F; f++ {
			for n := 0; n < d.N; n++ {
				rh[(f*d.N+n)*d.T+t] = snap[f*d.N+n]
			}
		}
	}
	if n := d.T * d.M; cap(lh) < n {
		lh = make([]float64, n)
	} else {
		lh = lh[:n]
	}
	for t := 0; t < d.T; t++ {
		copy(lh[t*d.M:(t+1)*d.M], latHist.At(t))
	}
	return rh, lh
}
