package core

import (
	"cmp"
	"math"
	"slices"

	"sinan/internal/cluster"
)

// candKind is a candidate's category in Table 1.
type candKind int

const (
	kindHold candKind = iota
	kindDown
	kindDownBatch
	kindUp
	kindUpAll
	kindUpVictim
)

// op is one resource operation of Table 1: scale by mul when non-zero,
// otherwise step by add cores.
type op struct{ add, mul float64 }

func (o op) apply(v float64) float64 {
	if o.mul != 0 {
		return v * o.mul
	}
	return v + o.add
}

// Table 1's operations. Single tiers try every op of their direction; the
// batch reclaim tries a fine −0.2-core step and the two ratios, which descend
// quickly from large overprovisioned allocations.
var (
	downOps  = [...]op{{add: -0.2}, {add: -0.6}, {add: -1.0}, {mul: 0.9}, {mul: 0.7}}
	upOps    = [...]op{{add: 0.2}, {add: 0.6}, {add: 1.0}, {mul: 1.1}, {mul: 1.3}}
	batchOps = [...]op{downOps[0], downOps[3], downOps[4]}
	// batchKs are the k values tried for "Scale Down Batch" (the k least
	// utilized tiers), followed by N−1; values above N−1 are clamped to it.
	batchKs = [...]int{2, 4, 8, 16}
)

// victimWindow is the t of "Scale Up Victim": tiers scaled down within the
// last t decision intervals are candidates for re-inflation. The scheduler
// uses the same window wherever it waits for fresh evidence: the cool-down
// after an emergency ramp and the no-reclaim grace after a recovery.
const victimWindow = 5

// candidates is the one representation of an interval's candidate set: row i
// of rc is candidate i's per-tier allocation — the [B,N] matrix the predictor
// reads, in place — beside its Table-1 kind and its total cores. Row 0 is the
// hold row. The backing arrays are sized once for the largest set Table 1 can
// produce and overwritten every interval.
type candidates struct {
	n     int // tiers per row
	rc    []float64
	kind  []candKind
	total []float64

	order []int // scratch: tiers by utilization, least utilized first
}

func newCandidates(n int) *candidates {
	// Hold, ≤ 5 downs and ≤ 5 ups per tier, 3 batch rows per k, up-all, victim.
	rows := 1 + 2*len(downOps)*n + len(batchOps)*(len(batchKs)+1) + 2
	return &candidates{
		n:     n,
		rc:    make([]float64, rows*n),
		kind:  make([]candKind, 0, rows),
		total: make([]float64, 0, rows),
		order: make([]int, n),
	}
}

// row returns candidate i's allocation: a view, valid until the next enumerate.
func (c *candidates) row(i int) []float64 { return c.rc[i*c.n : (i+1)*c.n] }

// next starts a candidate as a copy of cur. The row joins the set only if
// keep is called after the caller has edited it.
func (c *candidates) next(cur []float64) []float64 {
	row := c.row(len(c.kind))
	copy(row, cur)
	return row
}

func (c *candidates) keep(kind candKind) {
	total := 0.0
	for _, v := range c.row(len(c.kind)) {
		total += v
	}
	c.kind = append(c.kind, kind)
	c.total = append(c.total, total)
}

// observation is all Table 1 depends on: plain values, no scheduler, no model.
type observation struct {
	cur     []float64            // allocation in force
	stats   []cluster.Stats      // last interval's per-tier stats (CPU usage is what is read)
	stale   []int                // intervals each tier's stats have been missing
	downAge []int                // intervals since each tier was last scaled down
	tiers   []cluster.TierConfig // per-tier bounds and grid
	utilCap float64
	level   int // brownout level
}

// moves reports whether taking tier i to next is a real step in kind's
// direction. A step down must also be of a tier whose agent reported (never
// reclaim blind) and leave utilization under the cap (no queue build-up).
func (o *observation) moves(kind candKind, i int, next float64) bool {
	if kind == kindUp {
		return next > o.cur[i]
	}
	return next < o.cur[i] && o.stale[i] == 0 && o.stats[i].CPUUsage/next <= o.utilCap
}

// enumerate fills c with the pruned action set of Table 1, shrunk as the
// brownout level (overload.go) says.
//
// Row order is behaviour — choose keeps the first cheapest row — and is: hold,
// single downs (tier-major; steps then ratios), batches (k-major), single ups,
// up-all, victim.
func enumerate(c *candidates, o observation) {
	n := c.n
	c.kind, c.total = c.kind[:0], c.total[:0]

	c.next(o.cur)
	c.keep(kindHold)
	if o.level >= BrownoutHold {
		return
	}

	// Utilization order, least utilized first: scale-downs matter most on
	// the coldest tiers, scale-ups on the hottest. Ties (idle tiers sit at 0)
	// fall where this unstable sort leaves them, batch membership follows,
	// and the pinned decision digests depend on it.
	for i := range c.order {
		c.order[i] = i
	}
	slices.SortFunc(c.order, func(a, b int) int {
		return cmp.Compare(o.stats[a].CPUUsage/math.Max(o.cur[a], 1e-9), o.stats[b].CPUUsage/math.Max(o.cur[b], 1e-9))
	})

	downs, ups := c.order, c.order
	ks, ops := len(batchKs)+1, len(batchOps)
	if o.level == BrownoutTopK {
		k := min(brownoutTopK, n)
		downs, ups = c.order[:k], c.order[n-k:]
		ks, ops = 1, 1
	}

	c.singles(&o, downs, downOps[:], kindDown)

	for j := 0; j < ks; j++ {
		k := n - 1
		if j < len(batchKs) {
			k = min(batchKs[j], n-1)
		}
		if k < 2 {
			continue
		}
		for _, step := range batchOps[:ops] {
			row := c.next(o.cur)
			changed := false
			for _, i := range c.order[:k] {
				if next := o.tiers[i].ClampCPU(step.apply(row[i])); o.moves(kindDownBatch, i, next) {
					row[i] = next
					changed = true
				}
			}
			if changed {
				c.keep(kindDownBatch)
			}
		}
	}

	c.singles(&o, ups, upOps[:], kindUp)

	// Scale Up All inflates every tier (and is kept even when all sit at their
	// maximum); Scale Up Victim only those scaled down in the last t cycles.
	for _, kind := range [...]candKind{kindUpAll, kindUpVictim} {
		row := c.next(o.cur)
		changed := kind == kindUpAll
		for i, v := range row {
			if kind == kindUpVictim && o.downAge[i] > victimWindow {
				continue
			}
			if next := o.tiers[i].ClampCPU(math.Max(v*1.3, v+0.2)); next > v {
				row[i] = next
				changed = true
			}
		}
		if changed {
			c.keep(kind)
		}
	}
}

// singles adds the single-tier rows of one direction: for each of the given
// tiers, in tier-index order, every op that moves the tier that way to a
// value none of its earlier ops reached.
func (c *candidates) singles(o *observation, tiers []int, ops []op, kind candKind) {
	for i := range o.cur {
		if !slices.Contains(tiers, i) {
			continue
		}
		first := len(c.kind)
	ops:
		for _, step := range ops {
			next := o.tiers[i].ClampCPU(step.apply(o.cur[i]))
			if !o.moves(kind, i, next) {
				continue
			}
			for r := first; r < len(c.kind); r++ {
				if c.rc[r*c.n+i] == next {
					continue ops
				}
			}
			c.next(o.cur)[i] = next
			c.keep(kind)
		}
	}
}
