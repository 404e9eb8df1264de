package cluster

import (
	"fmt"

	"sinan/internal/sim"
)

// Stats is the per-tier, per-interval resource report a node agent produces.
// The fields mirror the feature channels the paper reads from Docker's
// cgroup interface (Sec. 3.1): CPU usage, resident set size, cache memory
// size, and received/sent packet counts.
type Stats struct {
	CPUUsage float64 // cores actually consumed (busy core-seconds / interval)
	CPULimit float64 // current allocation in cores
	RSS      float64 // resident set size, MB
	Cache    float64 // page-cache size, MB
	NetRx    float64 // packets received during the interval
	NetTx    float64 // packets sent during the interval
	QueueLen float64 // instantaneous connection-queue length
	Stalled  float64 // seconds the tier spent stalled during the interval
}

// NumStatFeatures is the number of resource channels exported per tier.
const NumStatFeatures = 6

// Features returns the channels used as ML model input, in the fixed order
// FeatureNames labels.
func (s Stats) Features() [NumStatFeatures]float64 {
	return [NumStatFeatures]float64{s.CPUUsage, s.CPULimit, s.RSS, s.Cache, s.NetRx, s.NetTx}
}

// FeatureNames labels the channels of Features, in its order.
var FeatureNames = [NumStatFeatures]string{"cpu usage", "cpu limit", "rss", "cache", "net rx", "net tx"}

// Cluster is a set of tiers driven by one simulation engine.
type Cluster struct {
	Eng    *sim.Engine
	rng    *sim.RNG
	tiers  []*Tier
	byName map[string]*Tier

	trees     map[*Stage]*node // call trees compiled against this cluster's tiers
	freeCalls []*call          // recycled stage records; see call

	completed   int64
	droppedReqs int64
}

// New creates a cluster with the given tier configurations. Tier order is
// preserved and becomes the row order of model inputs.
func New(eng *sim.Engine, rng *sim.RNG, cfgs []TierConfig) *Cluster {
	c := &Cluster{
		Eng: eng, rng: rng,
		byName: make(map[string]*Tier, len(cfgs)),
		trees:  make(map[*Stage]*node),
	}
	for i, cfg := range cfgs {
		if _, dup := c.byName[cfg.Name]; dup {
			panic(fmt.Sprintf("cluster: duplicate tier %q", cfg.Name))
		}
		t := newTier(eng, rng.Fork(), cfg, i)
		c.tiers = append(c.tiers, t)
		c.byName[cfg.Name] = t
	}
	return c
}

// Tiers returns the tiers in model order.
func (c *Cluster) Tiers() []*Tier { return c.tiers }

// NumTiers returns the number of tiers.
func (c *Cluster) NumTiers() int { return len(c.tiers) }

// AllocInto writes the current per-tier CPU allocation vector into dst,
// grown when its capacity is short, and returns it: a caller reading the
// allocation every interval keeps one buffer and allocates nothing.
func (c *Cluster) AllocInto(dst []float64) []float64 {
	if cap(dst) < len(c.tiers) {
		dst = make([]float64, len(c.tiers))
	}
	dst = dst[:len(c.tiers)]
	for i, t := range c.tiers {
		dst[i] = t.cpuLimit
	}
	return dst
}

// SetAlloc applies a per-tier CPU allocation vector.
func (c *Cluster) SetAlloc(cores []float64) {
	if len(cores) != len(c.tiers) {
		panic("cluster: allocation vector length mismatch")
	}
	for i, t := range c.tiers {
		t.SetCPULimit(cores[i])
	}
}

// SampleTier returns one tier's statistics accumulated since that tier was
// last sampled and resets its interval accumulators — the read a node
// agent performs on each tier it owns, once per decision interval. Each
// tier keeps its own last-sample time, so agents sampling their subsets
// independently (or late) still get correctly normalised rates.
// Implements statplane.TierSampler.
func (c *Cluster) SampleTier(i int) Stats {
	t := c.tiers[i]
	now := c.Eng.Now()
	interval := now - t.lastSample
	t.lastSample = now
	if interval <= 0 {
		interval = 1
	}
	t.advance()
	s := Stats{
		CPUUsage: t.busyCPU / interval,
		CPULimit: t.cpuLimit,
		RSS:      t.rss(),
		Cache:    t.cache(),
		NetRx:    float64(t.netRx),
		NetTx:    float64(t.netTx),
		QueueLen: float64(t.QueueLen()),
		Stalled:  t.stallTotal,
	}
	t.busyCPU = 0
	t.netRx = 0
	t.netTx = 0
	t.servedIntv = 0
	t.stallTotal = 0
	return s
}

// Completed returns the cumulative number of completed requests.
func (c *Cluster) Completed() int64 { return c.completed }

// DroppedRequests returns the cumulative number of requests dropped because
// some tier's admission queue overflowed.
func (c *Cluster) DroppedRequests() int64 { return c.droppedReqs }
