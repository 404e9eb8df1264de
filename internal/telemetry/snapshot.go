package telemetry

import (
	"encoding/json"
	"io"
	"math"
)

// Bucket is one non-empty histogram cell in a snapshot: the inclusive
// upper bound of the cell and how many observations landed in it.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistSnapshot is a point-in-time copy of one histogram. Count and the
// quantiles are computed from the same atomic bucket reads, so they are
// mutually consistent even when taken mid-write; Sum and Max are read
// separately and may trail the buckets by in-flight observations.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Max     float64  `json:"max"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	P999    float64  `json:"p999"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// child registries included (their instruments appear under "child/" name
// prefixes). Map keys are instrument names; encoding/json emits them
// sorted, so two equal snapshots marshal to identical bytes — the property
// the harness determinism test pins down.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]*HistSnapshot `json:"histograms"`
}

// snapshotHist copies one histogram's cells.
func snapshotHist(h *Histogram) *HistSnapshot {
	counts := make([]uint64, histBuckets+2)
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return histFromCounts(counts, total, h.Sum(), h.Max())
}

func histFromCounts(counts []uint64, total uint64, sum, max float64) *HistSnapshot {
	s := &HistSnapshot{Count: total, Sum: sum, Max: max}
	for i, c := range counts {
		if c != 0 {
			s.Buckets = append(s.Buckets, Bucket{LE: jsonSafe(bucketUpper(i)), Count: c})
		}
	}
	// Bucket-midpoint estimates can overshoot the true extreme by up to
	// half a bucket; the tracked max is an exact observation, so it caps
	// every quantile (p99 > max would be nonsense to a reader).
	clamp := func(q float64) float64 { return math.Min(bucketQuantile(counts, total, q), max) }
	if total > 0 {
		s.P50 = clamp(0.50)
		s.P95 = clamp(0.95)
		s.P99 = clamp(0.99)
		s.P999 = clamp(0.999)
	}
	return s
}

// jsonSafe maps +Inf (the overflow bucket's bound) to the largest finite
// bound so snapshots stay valid JSON.
func jsonSafe(v float64) float64 {
	if math.IsInf(v, 1) {
		return histMax
	}
	return v
}

// Snapshot copies every instrument of the registry and its children.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]*HistSnapshot),
	}
	r.snapshotInto(s, "")
	return s
}

func (r *Registry) snapshotInto(s *Snapshot, prefix string) {
	// Copy the instrument tables under the lock, read the cells outside it:
	// holding the registry mutex while loading atomics would serialise
	// snapshots against instrument registration for no consistency gain.
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	children := make(map[string]*Registry, len(r.children))
	for k, v := range r.children {
		children[k] = v
	}
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters[prefix+k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[prefix+k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[prefix+k] = snapshotHist(h)
	}
	for name, child := range children {
		child.snapshotInto(s, prefix+name+"/")
	}
}

// WriteJSON writes the snapshot as indented JSON. Keys are sorted, so
// equal snapshots produce identical bytes.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
