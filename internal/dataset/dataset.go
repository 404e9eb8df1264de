// Package dataset defines Sinan's training-sample schema and assembles
// samples from live run traces. Each sample pairs the model inputs of
// Sec. 3.1 — the per-tier resource-usage history image X_RH, the latency
// -percentile history X_LH, and the candidate next-step allocation X_RC —
// with two targets: the next interval's tail-latency percentiles (CNN
// target) and whether a QoS violation occurs within the next K intervals
// (Boosted Trees target).
//
// A sample's history is a window of T decision intervals, and a run records
// a sample every interval, so consecutive samples share T−1 of their steps.
// A Dataset therefore stores each interval once — a step: the interval's F·N
// stats features, then its M clipped latency percentiles — and each sample
// the index of its window's first step. Windows are assembled on read
// (GatherInto, Inputs) into the [F,N,T] and [T,M] layouts the models take.
// A step is shared only when the windows agree on it bit for bit, so every
// window reads back exactly as it was appended.
package dataset

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"

	"sinan/internal/cluster"
	"sinan/internal/metrics"
	"sinan/internal/nn"
	"sinan/internal/tensor"
	"sinan/internal/wire"
)

// Dataset is a collection of samples: per-sample allocations and targets,
// flat-packed, and the history windows as steps shared between samples.
type Dataset struct {
	D nn.Dims
	K int // violation lookahead in decision intervals

	RC    []float64 // n × N
	YLat  []float64 // n × M, next-interval percentiles (ms)
	YViol []bool    // n, violation within next K intervals
	Count int

	// steps holds one step of F·N + M floats per stored interval. Steps are
	// append-only and never written once stored, which is what lets Select
	// share them with its parent.
	steps []float64
	start []int // n, index of the sample's first step
}

// New creates an empty dataset for the given dimensions and lookahead.
func New(d nn.Dims, k int) *Dataset { return &Dataset{D: d, K: k} }

// Len returns the number of samples.
func (ds *Dataset) Len() int { return ds.Count }

func (ds *Dataset) rowSizes() (rh, lh, rc int) {
	return ds.D.F * ds.D.N * ds.D.T, ds.D.T * ds.D.M, ds.D.N
}

// stepSize is the floats one step holds: F·N stats features, then M
// latency percentiles.
func (ds *Dataset) stepSize() int { return ds.D.F*ds.D.N + ds.D.M }

// Reserve makes room for n more samples recorded one decision interval
// apart — n + T − 1 steps — so a collection of known length appends without
// regrowing.
func (ds *Dataset) Reserve(n int) {
	d := ds.D
	ds.steps = slices.Grow(ds.steps, (n+d.T-1)*ds.stepSize())
	ds.start = slices.Grow(ds.start, n)
	ds.RC = slices.Grow(ds.RC, n*d.N)
	ds.YLat = slices.Grow(ds.YLat, n*d.M)
	ds.YViol = slices.Grow(ds.YViol, n)
}

// Append adds one sample; slices are copied. rh is the window's [F,N,T]
// history image and lh its [T,M] latency history, flattened. When the
// previous sample's window ends at the last stored step and this window's
// first T−1 steps equal the last T−1 stored, bit for bit, only its last
// step is stored; otherwise all T are.
func (ds *Dataset) Append(rh, lh, rc, ylat []float64, yviol bool) {
	d := ds.D
	rhN, lhN, rcN := ds.rowSizes()
	if len(rh) != rhN || len(lh) != lhN || len(rc) != rcN || len(ylat) != d.M {
		panic(fmt.Sprintf("dataset: sample sizes %d/%d/%d/%d, want %d/%d/%d/%d",
			len(rh), len(lh), len(rc), len(ylat), rhN, lhN, rcN, d.M))
	}
	w := ds.stepSize()
	n := len(ds.steps) / w
	first := 0 // the window's first step not already stored
	if ds.Count > 0 && ds.start[ds.Count-1]+d.T == n && ds.continues(rh, lh) {
		first = d.T - 1
	}
	ds.start = append(ds.start, n-first)
	old := len(ds.steps)
	ds.steps = slices.Grow(ds.steps, (d.T-first)*w)[:old+(d.T-first)*w]
	for t := first; t < d.T; t++ {
		step := ds.steps[old+(t-first)*w : old+(t-first+1)*w]
		for j := range step[:d.F*d.N] {
			step[j] = rh[j*d.T+t]
		}
		copy(step[d.F*d.N:], lh[t*d.M:(t+1)*d.M])
	}
	ds.RC = append(ds.RC, rc...)
	ds.YLat = append(ds.YLat, ylat...)
	ds.YViol = append(ds.YViol, yviol)
	ds.Count++
}

// continues reports whether the window's first T−1 steps are the last T−1
// stored steps, compared as bits: −0 never stands in for +0, nor one NaN
// payload for another.
func (ds *Dataset) continues(rh, lh []float64) bool {
	d, w := ds.D, ds.stepSize()
	last := len(ds.steps)/w - (d.T - 1) // stored step holding window step 0
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for t := 0; t < d.T-1; t++ {
		step := ds.steps[(last+t)*w : (last+t+1)*w]
		for j, v := range step[:d.F*d.N] {
			if !same(v, rh[j*d.T+t]) {
				return false
			}
		}
		for m, v := range step[d.F*d.N:] {
			if !same(v, lh[t*d.M+m]) {
				return false
			}
		}
	}
	return true
}

// window writes sample i's history into rh ([F,N,T] flattened) and lh
// ([T,M] flattened).
func (ds *Dataset) window(i int, rh, lh []float64) {
	d, w := ds.D, ds.stepSize()
	for t := 0; t < d.T; t++ {
		step := ds.steps[(ds.start[i]+t)*w : (ds.start[i]+t+1)*w]
		for j, v := range step[:d.F*d.N] {
			rh[j*d.T+t] = v
		}
		copy(lh[t*d.M:(t+1)*d.M], step[d.F*d.N:])
	}
}

// gather writes samples idx's windows and allocations, in list order, into
// flat rh, lh and rc.
func (ds *Dataset) gather(rh, lh, rc []float64, idx []int) {
	rhN, lhN, rcN := ds.rowSizes()
	for k, i := range idx {
		ds.window(i, rh[k*rhN:(k+1)*rhN], lh[k*lhN:(k+1)*lhN])
		copy(rc[k*rcN:(k+1)*rcN], ds.RC[i*rcN:(i+1)*rcN])
	}
}

// GatherInto assembles samples idx, in list order, as model inputs in dst,
// reusing dst's buffers when their capacity allows. It implements nn.Rows,
// so training reads the dataset in place.
func (ds *Dataset) GatherInto(dst *nn.Inputs, idx []int) {
	d := ds.D
	dst.RH = tensor.Ensure(dst.RH, len(idx), d.F, d.N, d.T)
	dst.LH = tensor.Ensure(dst.LH, len(idx), d.T, d.M)
	dst.RC = tensor.Ensure(dst.RC, len(idx), d.N)
	ds.gather(dst.RH.Data, dst.LH.Data, dst.RC.Data, idx)
}

// AppendFrom copies all samples of other (same dims) into ds.
func (ds *Dataset) AppendFrom(other *Dataset) {
	if other.D != ds.D {
		panic("dataset: dims mismatch in AppendFrom")
	}
	rhN, lhN, rcN := ds.rowSizes()
	m := ds.D.M
	rh, lh := make([]float64, rhN), make([]float64, lhN)
	for i, n := 0, other.Count; i < n; i++ {
		other.window(i, rh, lh)
		ds.Append(rh, lh, other.RC[i*rcN:(i+1)*rcN], other.YLat[i*m:(i+1)*m], other.YViol[i])
	}
}

// Inputs returns every sample as model input tensors: a fresh copy, the
// caller's to keep or modify. Training reads the dataset in place through
// GatherInto instead.
func (ds *Dataset) Inputs() nn.Inputs {
	d, n := ds.D, ds.Count
	rhN, lhN, rcN := ds.rowSizes()
	in := nn.Inputs{
		RH: tensor.FromSlice(make([]float64, n*rhN), n, d.F, d.N, d.T),
		LH: tensor.FromSlice(make([]float64, n*lhN), n, d.T, d.M),
		RC: tensor.FromSlice(make([]float64, n*rcN), n, d.N),
	}
	ds.gather(in.RH.Data, in.LH.Data, in.RC.Data, nn.AllRows(n))
	return in
}

// Targets returns the latency targets as a [n, M] tensor (ms): a view of the
// dataset's own storage, read-only to the caller.
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

// Select returns a new dataset containing the given sample indices. It
// shares ds's stored steps — capped, so appending to either side never
// writes where the other reads — and copies the per-sample fields.
func (ds *Dataset) Select(idx []int) *Dataset {
	rcN, m, n := ds.D.N, ds.D.M, len(idx)
	out := &Dataset{
		D: ds.D, K: ds.K, Count: n,
		RC:    make([]float64, n*rcN),
		YLat:  make([]float64, n*m),
		YViol: make([]bool, n),
		steps: ds.steps[:len(ds.steps):len(ds.steps)],
		start: make([]int, n),
	}
	for k, i := range idx {
		copy(out.RC[k*rcN:(k+1)*rcN], ds.RC[i*rcN:(i+1)*rcN])
		copy(out.YLat[k*m:(k+1)*m], ds.YLat[i*m:(i+1)*m])
		out.YViol[k] = ds.YViol[i]
		out.start[k] = ds.start[i]
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

// Split is SplitRows with each side selected into a dataset of its own.
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

// fileMagic opens a dataset file. After it, little-endian: N, T, F, M, K
// and the sample count (u32 each), then per sample its whole window — the
// [F,N,T] history image and the [T,M] latency history — its allocation
// (N), its targets (M), as f64, and its violation label (one byte, 0 or
// 1). Whatever the in-memory storage, the file holds whole windows.
var fileMagic = [8]byte{'S', 'I', 'N', 'D', 'S', '0', '0', '1'}

// Save writes the dataset to w.
func (ds *Dataset) Save(w io.Writer) error {
	d := ds.D
	rhN, lhN, rcN := ds.rowSizes()
	b := append(make([]byte, 0, 32+ds.Count*ds.sampleBytes()), fileMagic[:]...)
	b = wire.AppendU32(b, d.N, d.T, d.F, d.M, ds.K, ds.Count)
	rh, lh := make([]float64, rhN), make([]float64, lhN)
	for i := 0; i < ds.Count; i++ {
		ds.window(i, rh, lh)
		b = wire.AppendF64(wire.AppendF64(b, rh...), lh...)
		b = wire.AppendF64(wire.AppendF64(b, ds.RC[i*rcN:(i+1)*rcN]...), ds.YLat[i*d.M:(i+1)*d.M]...)
		b = append(b, 0)
		if ds.YViol[i] {
			b[len(b)-1] = 1
		}
	}
	_, err := w.Write(b)
	return err
}

// sampleBytes is one sample's encoded size.
func (ds *Dataset) sampleBytes() int {
	rhN, lhN, rcN := ds.rowSizes()
	return 8*(rhN+lhN+rcN+ds.D.M) + 1
}

// Load decodes a dataset Save wrote. A count or dims the bytes left cannot
// hold, a label other than 0 or 1, or a byte past the last sample is an
// error, checked before anything is sized from it. The samples are
// appended in order, so the windows of a recorded run share their steps
// again.
func Load(data []byte) (*Dataset, error) {
	if !bytes.HasPrefix(data, fileMagic[:]) {
		return nil, fmt.Errorf("dataset: not a %s file (a gob dataset, written before it, is no longer read; collect it again)", fileMagic[:])
	}
	r := wire.NewReader(data[len(fileMagic):])
	d := nn.Dims{N: int(r.U32()), T: int(r.U32()), F: int(r.U32()), M: int(r.U32())}
	ds := New(d, int(r.U32()))
	if err := cmp.Or(r.Err(), d.Check()); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	size := ds.sampleBytes()
	n := r.Count(size)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if r.Len() != n*size {
		return nil, fmt.Errorf("dataset: %d samples of dims %+v take %d bytes, %d follow", n, d, n*size, r.Len())
	}
	rhN, lhN, rcN := ds.rowSizes()
	rh, lh, rc, ylat := make([]float64, rhN), make([]float64, lhN), make([]float64, rcN), make([]float64, d.M)
	ds.Reserve(n)
	for i := 0; i < n; i++ {
		for _, x := range [...][]float64{rh, lh, rc, ylat} {
			r.Floats(x)
		}
		v := r.Bytes(1)[0]
		if v > 1 {
			return nil, fmt.Errorf("dataset: sample %d's label is %d, not 0 or 1", i, v)
		}
		ds.Append(rh, lh, rc, ylat, v == 1)
	}
	return ds, nil
}

// LoadFile reads a dataset from a file. Datasets are written with
// lifecycle.WriteAtomic(path, ds.Save).
func LoadFile(path string) (*Dataset, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Load(b)
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
// the [F·N] stats features, channel-major (feature f of tier n at f·N+n),
// and the [M] latency percentiles, clipped at clipMS (0 disables
// clipping). This is the single definition of the model's input windowing,
// shared by the training-data Recorder and the online scheduler — the two
// must clip and pack identically or deployment inputs drift off the
// training distribution.
//
// Both rows are written over the rows the push evicts (History.PushSlot),
// so rings that have wrapped allocate nothing. An evicted row has already
// left the window: WindowInputsInto reads what fresh rows would give.
func PushWindow(statHist, latHist *metrics.History[[]float64], d nn.Dims,
	stats []cluster.Stats, perc metrics.Percentiles, clipMS float64) {
	if d.F > cluster.NumStatFeatures {
		panic("dataset: dims.F exceeds available stat features")
	}
	feat := reuseRow(statHist.PushSlot(), d.F*d.N)
	for n, s := range stats {
		fs := s.Features()
		for f := 0; f < d.F; f++ {
			feat[f*d.N+n] = fs[f]
		}
	}
	lat := reuseRow(latHist.PushSlot(), d.M)
	for i, v := range perc.Values {
		if clipMS > 0 && v > clipMS {
			v = clipMS
		}
		lat[i] = v
	}
}

// reuseRow sets *slot to a zeroed row of n floats, on its old storage when
// that is large enough, and returns it.
func reuseRow(slot *[]float64, n int) []float64 {
	if cap(*slot) < n {
		*slot = make([]float64, n)
	}
	*slot = (*slot)[:n]
	clear(*slot)
	return *slot
}

// ChanCPUUsage is the CPU-usage channel of the RH feature layout: channel f
// of the [F,N,T] history image holds cluster.Stats.Features()[f]. Consumers
// that read CPU usage from a history window (core.btRowInto, the bench's
// probes) index through it, so the model-input assembly here and the
// feature extraction there cannot drift apart.
const ChanCPUUsage = 0

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
