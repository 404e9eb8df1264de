// Package telemetry is the repository's metrics spine: one registry type
// that every layer — the prediction service, the resilient client, the
// online scheduler, the run harness, the fault injector — hangs its
// operational counters, gauges, and latency histograms on. Sinan's whole
// control loop is telemetry-driven (per-tier utilization and tail-latency
// percentiles feed the predictors every interval), and the same discipline
// is applied to the system's own operation: cheap, uniform, always-on
// measurement instead of one ad-hoc stats struct per subsystem.
//
// Design constraints, in order:
//
//  1. The hot path is lock- and allocation-free. Counter.Add, Gauge.Set,
//     and Histogram.Observe touch only atomics; instrument handles are
//     resolved once (cold path, under a registry mutex) and then held by
//     the caller. Observing a latency costs a Log2 and two atomic adds.
//  2. Snapshots are safe during writes. Every cell is read atomically and
//     histogram totals are computed from the same bucket reads, so a
//     snapshot taken mid-storm is internally consistent (bucket counts sum
//     to the reported count) even if it is a moment stale.
//  3. Per-run registries are deterministic. A registry populated only from
//     simulated time and seeded randomness snapshots bit-identically
//     regardless of harness worker count; wall-clock histograms are the
//     only nondeterministic instruments and are named *_ms by convention.
//
// Instrument names are dot-separated paths ("sched.predict.errors") with
// optional label pairs rendered into the name
// ("server.admission.outcome{result=...}"). Child registries nest under
// "child/" prefixes in a parent snapshot.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 instrument for last-value readings (in-flight
// requests, brownout level, queue depth, high-water marks).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge (CAS loop; allocation-free).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark (peak queue depth, max in-flight).
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket geometry: log-scale buckets with 2^(1/histSub) growth
// spanning [2^histMinExp, 2^histMaxExp), plus an underflow bucket (index 0,
// values ≤ 2^histMinExp including zero and negatives) and an overflow
// bucket. With histSub = 8 the growth factor is ≈1.09, so any quantile read
// from the buckets is within ±9% of the exact value — comfortably "good
// enough" for p50/p95/p99/p99.9 of latencies, while the whole histogram is
// a fixed 2 KiB of atomics. In milliseconds the span is ~15 ns to ~65 s.
const (
	histMinExp  = -16
	histMaxExp  = 16
	histSub     = 8
	histBuckets = (histMaxExp - histMinExp) * histSub // interior buckets

	histMin = 1.0 / 65536.0 // 2^histMinExp
	histMax = 65536.0       // 2^histMaxExp
)

// Histogram is a fixed-bucket log-scale histogram. Observe is lock- and
// allocation-free; quantiles are computed from bucket counts on demand.
type Histogram struct {
	counts [histBuckets + 2]atomic.Uint64 // [0]=underflow, [1..histBuckets]=interior, [last]=overflow
	sumB   atomic.Uint64                  // float64 bits of the running sum (CAS)
	maxB   atomic.Uint64                  // float64 bits of the max observation
}

// bucketIndex maps an observation to its bucket. NaN, zero, and negative
// values land in the underflow bucket.
func bucketIndex(v float64) int {
	if !(v > histMin) { // also catches NaN
		return 0
	}
	if v >= histMax {
		return histBuckets + 1
	}
	i := 1 + int((math.Log2(v)-histMinExp)*histSub)
	if i < 1 {
		i = 1
	}
	if i > histBuckets {
		i = histBuckets
	}
	return i
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) float64 {
	switch {
	case i <= 0:
		return math.Exp2(histMinExp)
	case i > histBuckets:
		return math.Inf(1)
	default:
		return math.Exp2(histMinExp + float64(i)/histSub)
	}
}

// bucketMid returns the representative value reported for bucket i: the
// geometric midpoint of its bounds, which halves the worst-case relative
// quantile error versus reporting an edge.
func bucketMid(i int) float64 {
	switch {
	case i <= 0:
		return 0
	case i > histBuckets:
		return math.Exp2(histMaxExp)
	default:
		return math.Exp2(histMinExp + (float64(i)-0.5)/histSub)
	}
}

// Observe records one value. Allocation-free and safe for concurrent use.
// NaN observations are counted (in the underflow bucket) but contribute
// zero to the running sum, so snapshots always marshal to valid JSON.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketIndex(v)].Add(1)
	if math.IsNaN(v) {
		v = 0
	}
	for {
		old := h.sumB.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumB.CompareAndSwap(old, nv) {
			break
		}
	}
	for {
		old := h.maxB.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxB.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumB.Load()) }

// Max returns the largest observation (0 if none).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxB.Load()) }

// bucketQuantile is the shared bucketed-quantile kernel (nearest-rank over
// cumulative bucket counts). metrics.LatencyWindow uses ExactQuantile on its
// sorted per-interval samples; streaming histograms use this.
func bucketQuantile(counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(counts) - 1)
}

// Registry owns a namespace of instruments. Lookup/creation is the cold
// path (mutex-guarded); the returned instrument pointers are the hot path.
// A Registry is safe for concurrent use and may nest child registries,
// whose instruments appear in the parent's snapshot under "child/" name
// prefixes.
type Registry struct {
	mu       sync.Mutex
	insts    map[string]any // *Counter, *Gauge or *Histogram, by rendered name
	children map[string]*Registry
	groupSeq map[string]int
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		insts:    make(map[string]any),
		children: make(map[string]*Registry),
		groupSeq: make(map[string]int),
	}
}

// Name renders an instrument name with label pairs: Name("x", "k", "v")
// returns `x{k=v}`. Labels are sorted by key so the same label set always
// renders the same name.
func Name(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list for %q: %v", name, labels))
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+labels[i+1])
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// instrument returns (registering on first use) the instrument of type T
// under the rendered name. A name registered as another kind panics.
func instrument[T Counter | Gauge | Histogram](r *Registry, name string, labels []string) *T {
	full := Name(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.insts[full]; ok {
		t, ok := have.(*T)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as a %T, requested as a %T", full, have, t))
		}
		return t
	}
	t := new(T)
	r.insts[full] = t
	return t
}

// Counter returns (registering on first use) the named counter. Optional
// labels are key/value pairs rendered into the name.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return instrument[Counter](r, name, labels)
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return instrument[Gauge](r, name, labels)
}

// Histogram returns (registering on first use) the named histogram.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return instrument[Histogram](r, name, labels)
}

// Child returns (creating on first use) the named sub-registry. Child
// instruments appear in the parent's snapshot as "name/instrument". The
// same name always returns the same child; use Group for a fresh namespace
// per call.
func (r *Registry) Child(name string) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.children[name]
	if !ok {
		c = NewRegistry()
		r.children[name] = c
	}
	return c
}

// Group creates a uniquely named child registry "prefix#k" (k counts per
// prefix). The run harness uses it so repeated executions of the same suite
// under one root registry never collide with — and never double-count
// into — an earlier execution's instruments.
func (r *Registry) Group(prefix string) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.groupSeq[prefix]++
	name := fmt.Sprintf("%s#%d", prefix, r.groupSeq[prefix])
	c := NewRegistry()
	r.children[name] = c
	return c
}

// Attacher is implemented by components that can rebind their instruments
// onto a caller-provided registry — policies and fault injectors implement
// it so the runner can gather a whole run's telemetry in one per-run
// registry. AttachMetrics must be called before the component starts
// operating; counts recorded on a previously attached registry stay there.
type Attacher interface {
	AttachMetrics(*Registry)
}
