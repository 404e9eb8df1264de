// Package collect implements Sinan's training-data collection (Sec. 4.2):
// a multi-armed-bandit exploration of the per-tier resource-allocation
// space that maximises information gain about the mapping from allocations
// to end-to-end QoS (Eq. 3), concentrating samples on the QoS boundary.
// The alternative collectors the paper compares against in Fig. 10 —
// autoscale-driven and uniformly random exploration — live here too.
package collect

import (
	"fmt"
	"math"
	"math/rand"

	"sinan/internal/apps"
	"sinan/internal/dataset"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/workload"
)

// op is one bandit action on a tier's CPU allocation.
type op struct {
	delta float64 // absolute change in cores (0.2 … 1.0 steps)
	ratio float64 // multiplicative change (0.9/1.1/0.7/1.3); 0 if absolute
}

func (o op) apply(cur float64) float64 {
	if o.ratio != 0 {
		return cur * o.ratio
	}
	return cur + o.delta
}

func (o op) isDown() bool { return o.delta < 0 || (o.ratio != 0 && o.ratio < 1) }

// The pruned action set of Sec. 4.2: ±0.2 to ±1.0 cores and ±10% / ±30%.
var bandOps = []op{
	{delta: 0},
	{delta: -0.2}, {delta: -0.4}, {delta: -0.6}, {delta: -0.8}, {delta: -1.0},
	{delta: 0.2}, {delta: 0.4}, {delta: 0.6}, {delta: 0.8}, {delta: 1.0},
	{ratio: 0.9}, {ratio: 1.1}, {ratio: 0.7}, {ratio: 1.3},
}

// armKey identifies one Bernoulli arm: a tier at an approximate running
// state (rps, lat, latdiff buckets — Sec. 4.2) with a candidate allocation.
// The five small integers are packed into one word — 12 bits of tier, 24 of
// rpsB, 8 of latB, 2 of diffB+1 and 16 of allocB, low to high in that order
// of fields — because Decide looks arms up some 200 times per interval and a
// one-word key hashes without a call.
type armKey uint64

func newArmKey(tier, rpsB, latB, diffB, allocB int) armKey {
	// A negative int converts to a word with its high bits set, so one test
	// covers both ends of every field.
	if uint64(tier)>>12|uint64(rpsB)>>24|uint64(latB)>>8|uint64(diffB+1)>>2|uint64(allocB)>>16 != 0 {
		panic(fmt.Sprintf("collect: arm (tier %d, rps %d, lat %d, diff %d, alloc %d) does not fit its key",
			tier, rpsB, latB, diffB, allocB))
	}
	return armKey(allocB)<<46 | armKey(diffB+1)<<44 | armKey(latB)<<36 | armKey(rpsB)<<12 | armKey(tier)
}

// armStat tracks the Bernoulli QoS-meeting estimate for an arm.
type armStat struct {
	n, k int // trials, successes (QoS met)
}

func (a armStat) p() float64 { return (float64(a.k) + 1) / (float64(a.n) + 2) }

// width is the confidence-interval proxy √(p(1−p)/(n+1)) of Eq. 3.
func width(p float64, n int) float64 {
	return math.Sqrt(p * (1 - p) / float64(n+1))
}

// infoGain is the expected reduction in the arm's confidence interval from
// one more pull (Eq. 3): current width minus the expectation of the
// posterior widths under success (p⁺) and failure (p⁻).
func (a armStat) infoGain() float64 {
	p := a.p()
	pPlus := (float64(a.k) + 2) / (float64(a.n) + 3)
	pMinus := (float64(a.k) + 1) / (float64(a.n) + 3)
	return width(p, a.n) - p*width(pPlus, a.n+1) - (1-p)*width(pMinus, a.n+1)
}

// Bandit is the information-gain-driven exploration policy. It implements
// runner.Policy, so collection runs use the exact plumbing of managed runs.
type Bandit struct {
	QoSMS float64
	// AlphaFrac extends the explored latency region to [0, QoS·(1+AlphaFrac)]
	// (Sec. 4.2 uses 20% of QoS) so the dataset includes boundary violations.
	AlphaFrac float64
	// UtilCap rejects downsizing that would push a tier's utilization above
	// this bound, preventing queue blow-ups and dropped requests.
	UtilCap float64
	// CoeffDown/CoeffUp/CoeffHold bias the information gain (the C_op of
	// Eq. 3) toward reclaiming overprovisioned resources while meeting QoS.
	CoeffDown, CoeffUp, CoeffHold float64

	MinCPU, MaxCPU []float64 // per-tier bounds

	arms     map[armKey]*armStat
	rng      *rand.Rand
	lastLat  float64
	lastKeys []armKey // arms pulled in the previous interval
	step     int
}

// NewBandit creates the explorer for an application.
func NewBandit(app *apps.App, seed int64) *Bandit {
	b := &Bandit{
		QoSMS:     app.QoSMS,
		AlphaFrac: 0.2,
		UtilCap:   0.85,
		CoeffDown: 1.2,
		CoeffUp:   0.8,
		CoeffHold: 1.0,
		arms:      make(map[armKey]*armStat),
		rng:       rand.New(rand.NewSource(seed)),
	}
	for _, tc := range app.Tiers {
		lo, hi := tc.CPUBounds()
		b.MinCPU = append(b.MinCPU, lo)
		b.MaxCPU = append(b.MaxCPU, hi)
	}
	return b
}

// Name implements runner.Policy.
func (b *Bandit) Name() string { return "BanditExplorer" }

func (b *Bandit) buckets(s runner.State) (int, int, int) {
	rpsB := int(s.RPS / 50)
	latB := int(s.Perc.P99() / (b.QoSMS / 4))
	if latB > 6 {
		latB = 6
	}
	diff := s.Perc.P99() - b.lastLat
	diffB := 0
	switch {
	case diff > b.QoSMS/10:
		diffB = 1
	case diff < -b.QoSMS/10:
		diffB = -1
	}
	return rpsB, latB, diffB
}

// Decide implements runner.Policy: every tier is an independent arm; for
// each, the op with the highest coefficient-weighted information gain is
// applied (Eq. 3).
func (b *Bandit) Decide(s runner.State) runner.Decision {
	met := s.Perc.P99() <= b.QoSMS && s.Perc.Drops == 0

	// Credit the arms pulled last interval with this interval's outcome.
	for _, k := range b.lastKeys {
		st := b.arms[k]
		if st == nil {
			st = &armStat{}
			b.arms[k] = st
		}
		st.n++
		if met {
			st.k++
		}
	}
	b.lastKeys = b.lastKeys[:0]

	alloc := append([]float64(nil), s.Alloc...)

	// Periodic full-allocation probes: deployment regularly passes through
	// high-allocation states (bootstrap, emergency upscales), so the
	// training distribution must cover them at every load level, not only
	// the boundary region the bandit otherwise concentrates on.
	b.step++
	if b.step%100 < 3 {
		for i := range alloc {
			alloc[i] = b.MaxCPU[i]
		}
		b.lastKeys = b.lastKeys[:0]
		b.lastLat = s.Perc.P99()
		return runner.Decision{Alloc: alloc}
	}

	overLimit := s.Perc.P99() > b.QoSMS*(1+b.AlphaFrac) || s.Perc.Drops > 0

	rpsB, latB, diffB := b.buckets(s)
	overQoS := s.Perc.P99() > b.QoSMS

	for i := range alloc {
		if overLimit {
			// Beyond the explored region: force a fast recovery so the
			// latency distribution stays near deployment conditions and the
			// dataset is not dominated by deep-violation states.
			alloc[i] = clamp(alloc[i]*1.6+0.5, b.MinCPU[i], b.MaxCPU[i])
			continue
		}
		if overQoS {
			// Inside [QoS, QoS+α]: boundary samples are being recorded, but
			// the episode must not linger — nudge loaded tiers upward so the
			// queue drains within a few intervals.
			if s.Stats[i].CPUUsage/alloc[i] > 0.5 {
				alloc[i] = clamp(quant(alloc[i]*1.2+0.2), b.MinCPU[i], b.MaxCPU[i])
			}
			b.lastKeys = append(b.lastKeys, newArmKey(i, rpsB, latB, diffB, int(alloc[i]*5+0.5)))
			continue
		}
		bestScore := math.Inf(-1)
		bestOp := op{}
		for _, o := range bandOps {
			next := clamp(quant(o.apply(alloc[i])), b.MinCPU[i], b.MaxCPU[i])
			if o.isDown() {
				if overQoS {
					continue // no reclamation while violating
				}
				if s.Stats[i].CPUUsage/next > b.UtilCap {
					continue // would over-saturate the tier
				}
			}
			st := b.arms[newArmKey(i, rpsB, latB, diffB, int(next*5+0.5))]
			if st == nil {
				st = &armStat{}
			}
			coeff := b.CoeffHold
			if o.isDown() {
				coeff = b.CoeffDown
			} else if next > alloc[i] {
				coeff = b.CoeffUp
			}
			score := coeff * st.infoGain()
			// Deterministic jitter breaks ties between equally unexplored arms.
			score += 1e-9 * b.rng.Float64()
			if score > bestScore {
				bestScore = score
				bestOp = o
			}
		}
		next := clamp(quant(bestOp.apply(alloc[i])), b.MinCPU[i], b.MaxCPU[i])
		alloc[i] = next
		b.lastKeys = append(b.lastKeys, newArmKey(i, rpsB, latB, diffB, int(next*5+0.5)))
	}
	b.lastLat = s.Perc.P99()
	return runner.Decision{Alloc: alloc}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// quant rounds to the 0.2-core exploration granularity.
func quant(v float64) float64 { return math.Round(v*5) / 5 }

// Random explores allocations uniformly at random (the naive scheme of
// Fig. 10b): every interval each tier receives an independent uniform
// allocation within its bounds.
type Random struct {
	MinCPU, MaxCPU []float64
	rng            *rand.Rand
}

// NewRandom creates the random collector for an application.
func NewRandom(app *apps.App, seed int64) *Random {
	r := &Random{rng: rand.New(rand.NewSource(seed))}
	for _, tc := range app.Tiers {
		lo, hi := tc.CPUBounds()
		r.MinCPU = append(r.MinCPU, lo)
		r.MaxCPU = append(r.MaxCPU, hi)
	}
	return r
}

// Name implements runner.Policy.
func (r *Random) Name() string { return "RandomExplorer" }

// Decide implements runner.Policy.
func (r *Random) Decide(s runner.State) runner.Decision {
	alloc := make([]float64, len(s.Alloc))
	for i := range alloc {
		alloc[i] = quant(r.MinCPU[i] + r.rng.Float64()*(r.MaxCPU[i]-r.MinCPU[i]))
	}
	return runner.Decision{Alloc: alloc}
}

// SweepPattern is a piecewise-constant load pattern that hops between
// deterministic pseudo-random levels in [MinRPS, MaxRPS] every SegmentLen
// seconds, exposing the explorer to the whole load range (the paper's
// collection runs sweep emulated user counts).
type SweepPattern struct {
	MinRPS, MaxRPS float64
	SegmentLen     float64
	Seed           int64
}

// RPS implements workload.Pattern.
func (p SweepPattern) RPS(t float64) float64 {
	if p.SegmentLen <= 0 {
		return p.MinRPS
	}
	seg := uint64(t / p.SegmentLen)
	return p.MinRPS + (p.MaxRPS-p.MinRPS)*hashFrac(uint64(p.Seed)*0x9E3779B97F4A7C15+seg)
}

// hashFrac maps a 64-bit value to [0,1) via splitmix64 finalisation.
func hashFrac(x uint64) float64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// Config describes one collection session.
type Config struct {
	App      *apps.App
	Policy   runner.Policy // collection policy (Bandit, Random, autoscaler…)
	Pattern  workload.Pattern
	Duration float64
	Seed     int64
	Dims     nn.Dims
	K        int // violation lookahead intervals
}

// Run executes a collection session and returns the gathered dataset.
func Run(cfg Config) *dataset.Dataset {
	ds := dataset.New(cfg.Dims, cfg.K)
	// The recorder completes at most one sample per decision interval:
	// reserve them all, so appending never regrows the dataset's slices.
	ds.Reserve(max(int(cfg.Duration/runner.Interval), 0))
	rec := dataset.NewRecorder(ds, cfg.App.QoSMS)
	runner.Run(runner.Config{
		App:      cfg.App,
		Policy:   cfg.Policy,
		Pattern:  cfg.Pattern,
		Duration: cfg.Duration,
		Seed:     cfg.Seed,
		Recorder: rec,
	})
	return ds
}

// DefaultDims returns the model dimensions for an application: all N tiers,
// T=5 past timesteps, the 6 resource channels, and 5 latency percentiles.
func DefaultDims(app *apps.App) nn.Dims {
	return nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
}
