// Package metrics aggregates end-to-end latencies and per-tier statistics
// into the per-interval summaries Sinan consumes: tail-latency percentiles
// (p95–p99) per decision interval, QoS bookkeeping over a run, and fixed
// length history windows used as ML model input.
package metrics

import (
	"sort"

	"sinan/internal/telemetry"
)

// NumPercentiles is the number of latency percentiles tracked (p95..p99),
// matching the M dimension of the paper's latency-history input.
const NumPercentiles = 5

// Percentiles holds one decision interval's end-to-end latency summary in
// milliseconds. Values[i] is the (95+i)-th percentile.
type Percentiles struct {
	Values [NumPercentiles]float64
	Count  int     // completed requests in the interval
	Mean   float64 // mean latency, ms
	Drops  int     // requests dropped (counted as QoS violations)
}

// P99 returns the 99th-percentile latency in milliseconds.
func (p Percentiles) P99() float64 { return p.Values[NumPercentiles-1] }

// DropLatencyMS is the latency assigned to dropped requests so they land in
// (and dominate) the tail rather than vanishing from the distribution.
const DropLatencyMS = 10000

// LatencyWindow accumulates request latencies for the current decision
// interval. The zero value is ready to use.
type LatencyWindow struct {
	lats  []float64
	drops int
}

// Record adds one completed request's latency (milliseconds).
func (w *LatencyWindow) Record(ms float64) { w.lats = append(w.lats, ms) }

// RecordDrop adds one dropped request.
func (w *LatencyWindow) RecordDrop() {
	w.lats = append(w.lats, DropLatencyMS)
	w.drops++
}

// Flush computes the interval percentiles and resets the window. An empty
// interval yields all-zero percentiles (an idle system meets QoS trivially).
func (w *LatencyWindow) Flush() Percentiles {
	var p Percentiles
	p.Count = len(w.lats)
	p.Drops = w.drops
	if p.Count == 0 {
		w.drops = 0
		return p
	}
	sum := 0.0
	for _, v := range w.lats {
		sum += v
	}
	p.Mean = sum / float64(p.Count)
	// Only ranks from p95's up are read, so only that tail is sorted: the
	// values there are the ones a full sort would put there.
	k := telemetry.ExactRank(p.Count, 0.95)
	selectRank(w.lats, k)
	sort.Float64s(w.lats[k:])
	for i := 0; i < NumPercentiles; i++ {
		p.Values[i] = percentileSorted(w.lats, float64(95+i))
	}
	w.lats = w.lats[:0]
	w.drops = 0
	return p
}

// selectRank permutes a so that a[k] is the value a full sort would put
// there, nothing before it is larger and nothing after it is smaller
// (Hoare's FIND, pivoting on the middle element).
func selectRank(a []float64, k int) {
	for lo, hi := 0, len(a)-1; lo < hi; {
		pivot := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// percentileSorted returns the q-th percentile (q in [0,100]) of sorted
// data. The math lives in telemetry.ExactQuantile — one nearest-rank
// implementation shared with the streaming histogram's quantile kernel, so
// the two cannot drift apart (telemetry's TestQuantileAgreement pins them
// to each other).
func percentileSorted(sorted []float64, q float64) float64 {
	return telemetry.ExactQuantile(sorted, q/100)
}

// Percentile computes the q-th percentile of unsorted data (copying; the
// input is left unmodified).
func Percentile(data []float64, q float64) float64 {
	if len(data) == 0 {
		return 0
	}
	cp := append([]float64(nil), data...)
	sort.Float64s(cp)
	return percentileSorted(cp, q)
}

// QoSMeter tracks QoS attainment and CPU cost over a managed run,
// reproducing the three quantities of Fig. 11: probability of meeting QoS,
// mean aggregate CPU allocation, and max aggregate CPU allocation.
type QoSMeter struct {
	QoSMS     float64
	intervals int
	met       int
	sumAlloc  float64
	maxAlloc  float64
}

// NewQoSMeter creates a meter for the given tail-latency target (ms).
func NewQoSMeter(qosMS float64) *QoSMeter { return &QoSMeter{QoSMS: qosMS} }

// Observe records one decision interval's p99 and aggregate allocation.
func (m *QoSMeter) Observe(p Percentiles, totalAllocCores float64) {
	m.intervals++
	if p.P99() <= m.QoSMS && p.Drops == 0 {
		m.met++
	}
	m.sumAlloc += totalAllocCores
	if totalAllocCores > m.maxAlloc {
		m.maxAlloc = totalAllocCores
	}
}

// MeetProb returns the fraction of intervals meeting QoS.
func (m *QoSMeter) MeetProb() float64 {
	if m.intervals == 0 {
		return 1
	}
	return float64(m.met) / float64(m.intervals)
}

// MeanAlloc returns the time-averaged aggregate CPU allocation (cores).
func (m *QoSMeter) MeanAlloc() float64 {
	if m.intervals == 0 {
		return 0
	}
	return m.sumAlloc / float64(m.intervals)
}

// MaxAlloc returns the maximum aggregate CPU allocation (cores).
func (m *QoSMeter) MaxAlloc() float64 { return m.maxAlloc }

// History is a fixed-capacity ring of per-interval snapshots, oldest first
// when read. It backs the T-timestep windows of the model inputs.
type History[T any] struct {
	buf   []T
	start int
	n     int
}

// NewHistory creates a ring holding the last capacity items.
func NewHistory[T any](capacity int) *History[T] {
	if capacity <= 0 {
		capacity = 1
	}
	return &History[T]{buf: make([]T, capacity)}
}

// PushSlot appends a slot, evicting the oldest item once full, and returns
// it for the caller to fill. The slot holds the item it evicted — already
// out of the window, so the caller may reuse its storage — or, until the
// ring is full, the zero value. A ring of reused rows allocates nothing
// once it has wrapped.
func (h *History[T]) PushSlot() *T {
	if h.n < len(h.buf) {
		h.n++
		return &h.buf[(h.start+h.n-1)%len(h.buf)]
	}
	slot := &h.buf[h.start]
	h.start = (h.start + 1) % len(h.buf)
	return slot
}

// Len returns the number of stored items.
func (h *History[T]) Len() int { return h.n }

// Full reports whether the ring holds capacity items.
func (h *History[T]) Full() bool { return h.n == len(h.buf) }

// At returns the i-th item, 0 = oldest.
func (h *History[T]) At(i int) T {
	if i < 0 || i >= h.n {
		panic("metrics: history index out of range")
	}
	return h.buf[(h.start+i)%len(h.buf)]
}

// Mean returns the arithmetic mean of a slice (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
