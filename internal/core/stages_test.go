package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/telemetry"
)

// obsFor is the observation a fresh scheduler at full enumeration would
// hand enumerate for st: every agent reporting, no recent scale-down, the
// default utilization cap.
func obsFor(app *apps.App, st runner.State) observation {
	n := len(app.Tiers)
	o := observation{
		cur: st.Alloc, stats: st.Stats, stale: make([]int, n), downAge: make([]int, n),
		tiers: app.Tiers, utilCap: SchedulerOptions{}.withDefaults().UtilCap,
	}
	for i := range o.downAge {
		o.downAge[i] = 1 << 30
	}
	return o
}

// randomObservation draws an allocation on the grid (some tiers pinned to a
// bound), usages that tie at 0, tie at a common fraction or scatter, a
// missing mask and recent scale-downs.
func randomObservation(rng *rand.Rand, app *apps.App) observation {
	alloc := make([]float64, len(app.Tiers))
	for i, tc := range app.Tiers {
		lo, hi := tc.CPUBounds()
		switch rng.Intn(6) {
		case 0:
			alloc[i] = lo
		case 1:
			alloc[i] = hi
		default:
			alloc[i] = tc.ClampCPU(lo + rng.Float64()*(hi-lo))
		}
	}
	o := obsFor(app, stateFor(app, 20, alloc, 0.25))
	for i := range alloc {
		switch rng.Intn(4) {
		case 0:
			o.stats[i].CPUUsage = 0
		case 1: // stays tied at 25%
		default:
			o.stats[i].CPUUsage = alloc[i] * rng.Float64()
		}
		if rng.Intn(8) == 0 {
			o.stale[i] = 1 + rng.Intn(2*staleCap)
		}
		if rng.Intn(3) == 0 {
			o.downAge[i] = rng.Intn(2 * victimWindow)
		}
	}
	if rng.Intn(4) == 0 {
		o.utilCap = 0.99
	}
	return o
}

// rowSet copies an enumerated set out of its reused buffer.
type rowSet struct {
	kind []candKind
	rows [][]float64
}

func enumerated(c *candidates, o observation) rowSet {
	enumerate(c, o)
	rs := rowSet{kind: slices.Clone(c.kind)}
	for r := range c.kind {
		rs.rows = append(rs.rows, slices.Clone(c.row(r)))
	}
	return rs
}

func (rs rowSet) contains(kind candKind, row []float64) bool {
	for r, k := range rs.kind {
		if k == kind && slices.Equal(rs.rows[r], row) {
			return true
		}
	}
	return false
}

// Property: whatever the allocation, usage, missing mask, scale-down history
// and brownout level, enumerate produces a well-formed Table 1.
func TestEnumerateProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, app := range []*apps.App{apps.NewHotelReservation(), apps.NewSocialNetwork()} {
		c := newCandidates(len(app.Tiers))
		for trial := 0; trial < 300; trial++ {
			o := randomObservation(rng, app)
			var sets [3]rowSet
			for level := range sets {
				o.level = level
				sets[level] = enumerated(c, o)
				checkTable(t, c, o)
			}
			full, topK, hold := sets[BrownoutNone], sets[BrownoutTopK], sets[BrownoutHold]
			if len(hold.kind) != 1 {
				t.Fatalf("hold level enumerated %d rows", len(hold.kind))
			}
			if len(topK.kind) > len(full.kind) {
				t.Fatalf("top-k enumerated %d rows, full %d", len(topK.kind), len(full.kind))
			}
			for r, k := range topK.kind {
				if !full.contains(k, topK.rows[r]) {
					t.Fatalf("top-k row %d (kind %d) %v is not in the full set", r, k, topK.rows[r])
				}
			}
		}
	}
}

// checkTable checks one enumerated set, still in c, against its observation.
func checkTable(t *testing.T, c *candidates, o observation) {
	t.Helper()
	for r, kind := range c.kind {
		row := c.row(r)
		if (kind == kindHold) != (r == 0) {
			t.Fatalf("row %d has kind %d: row 0 is the hold row and the only one", r, kind)
		}
		sum, lowered, raised := 0.0, 0, 0
		for i, v := range row {
			sum += v
			if v != o.tiers[i].ClampCPU(v) {
				t.Fatalf("row %d tier %d = %v is off the grid or out of bounds", r, i, v)
			}
			switch {
			case v < o.cur[i]:
				lowered++
				if o.stale[i] > 0 {
					t.Fatalf("row %d shrinks tier %d, whose stats are missing", r, i)
				}
				if util := o.stats[i].CPUUsage / v; util > o.utilCap {
					t.Fatalf("row %d takes tier %d to utilization %v, cap %v", r, i, util, o.utilCap)
				}
			case v > o.cur[i]:
				raised++
			}
		}
		if c.total[r] != sum {
			t.Fatalf("row %d total %v, row sums to %v", r, c.total[r], sum)
		}
		ok := false
		switch kind {
		case kindHold:
			ok = lowered == 0 && raised == 0
		case kindDown:
			ok = lowered == 1 && raised == 0
		case kindDownBatch:
			ok = lowered >= 1 && raised == 0
		case kindUp:
			ok = lowered == 0 && raised == 1
		case kindUpAll:
			ok = lowered == 0
		case kindUpVictim:
			ok = lowered == 0 && raised >= 1
		}
		if !ok {
			t.Fatalf("row %d of kind %d lowers %d tiers and raises %d", r, kind, lowered, raised)
		}
	}
}

// The utilization cap is exact: a single-tier cut is enumerated when it
// lands the tier at the largest usage that still satisfies usage/next ≤ cap
// and not at the next float up.
func TestEnumerateUtilCapBoundary(t *testing.T) {
	app := testApp()
	c := newCandidates(len(app.Tiers))
	o := obsFor(app, stateFor(app, 20, mkAlloc(app, 2), 0))
	const tier, next = 3, 1.8 // 2.0 − 0.2
	at := o.utilCap * next
	for at/next > o.utilCap {
		at = math.Nextafter(at, 0)
	}
	for math.Nextafter(at, 4)/next <= o.utilCap {
		at = math.Nextafter(at, 4)
	}
	cut := slices.Clone(o.cur)
	cut[tier] = next
	for _, tc := range []struct {
		usage float64
		want  bool
	}{{at, true}, {math.Nextafter(at, 4), false}} {
		o.stats[tier].CPUUsage = tc.usage
		if got := enumerated(c, o).contains(kindDown, cut); got != tc.want {
			t.Fatalf("usage/next = %v against cap %v: cut enumerated %v, want %v", tc.usage/next, o.utilCap, got, tc.want)
		}
	}
}

// The utilization order must stay the permutation sort.Slice gave the
// original scheduler, ties included: batch membership and the top-k sets are
// read off it, and sort.Slice is not stable.
func TestEnumerateOrderMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, app := range []*apps.App{apps.NewHotelReservation(), apps.NewSocialNetwork()} {
		c := newCandidates(len(app.Tiers))
		for trial := 0; trial < 200; trial++ {
			o := randomObservation(rng, app)
			enumerate(c, o)
			want := make([]int, len(app.Tiers))
			for i := range want {
				want[i] = i
			}
			sort.Slice(want, func(a, b int) bool {
				ua := o.stats[want[a]].CPUUsage / math.Max(o.cur[want[a]], 1e-9)
				ub := o.stats[want[b]].CPUUsage / math.Max(o.cur[want[b]], 1e-9)
				return ua < ub
			})
			if !slices.Equal(c.order, want) {
				t.Fatalf("utilization order %v, sort.Slice gives %v", c.order, want)
			}
		}
	}
}

// Property: choose returns the first cheapest row that passes the filters of
// Sec. 4.3, never a reclaim while hot or while holding looks risky, and
// reports failure exactly when nothing passes.
func TestChooseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 2000; trial++ {
		b := 1 + rng.Intn(40)
		kind := make([]candKind, b)
		total, p99, pviol := make([]float64, b), make([]float64, b), make([]float64, b)
		for i := range kind {
			if i > 0 {
				kind[i] = candKind(1 + rng.Intn(5))
			}
			total[i] = float64(rng.Intn(6)) // few distinct values: ties are the rule
			p99[i] = 250 * rng.Float64()
			pviol[i] = rng.Float64()
		}
		lim := limits{pd: 0.5 * rng.Float64(), pu: rng.Float64(), latBound: 190, downBound: 140, hot: rng.Intn(4) == 0}
		if rng.Intn(5) == 0 {
			lim.pd, lim.pu = 1, 1 // ultra safe
		}

		accepted := func(i int) bool {
			switch kind[i] {
			case kindHold:
				return pviol[i] < lim.pu && p99[i] <= lim.latBound
			case kindDown, kindDownBatch:
				return !lim.hot && pviol[0] < lim.pu && pviol[i] < lim.pd && p99[i] <= lim.downBound
			}
			return pviol[i] < lim.pu
		}
		want := -1
		for i := range kind {
			if accepted(i) && (want < 0 || total[i] < total[want]) {
				want = i
			}
		}

		best, ok := choose(kind, total, p99, pviol, lim)
		if ok != (want >= 0) || (ok && best != want) {
			t.Fatalf("trial %d: choose = (%d, %v), want row %d", trial, best, ok, want)
		}
		if ok && (kind[best] == kindDown || kind[best] == kindDownBatch) && (lim.hot || pviol[0] >= lim.pu) {
			t.Fatalf("trial %d: reclaim chosen while hot=%v, hold pviol %v against p_u %v", trial, lim.hot, pviol[0], lim.pu)
		}
		if again, okAgain := choose(kind, total, p99, pviol, lim); again != best || okAgain != ok {
			t.Fatalf("trial %d: identical inputs gave (%d, %v) then (%d, %v)", trial, best, ok, again, okAgain)
		}
	}
}

// Trust erosion is control state, so it must not live in an instrument that
// AttachMetrics replaces: a scheduler rebound to another registry one
// misprediction short of the threshold loses trust on the next one, not 26
// later.
func TestAttachMetricsKeepsTrustState(t *testing.T) {
	app := testApp()
	f := &fakeModel{d: nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}, qos: 200, rmse: 10, needCores: 10}
	alloc := mkAlloc(app, 4)
	s := warmScheduler(app, f, alloc)
	calm := stateFor(app, 150, alloc, 0.3) // not ultra safe, so p_d is what trust makes it
	mispredict := func() {
		for s.Decide(calm).PredP99MS == 0 { // through the cool-down to a model-driven interval…
		}
		s.Decide(stateFor(app, 500, alloc, 0.3)) // …whose calm prediction the violation contradicts
	}
	for i := 0; i < trustThreshold; i++ {
		mispredict()
	}
	if s.Mispredictions() != trustThreshold || s.limits(calm).pd == 0 {
		t.Fatalf("after %d mispredictions: tally %d, p_d %v", trustThreshold, s.Mispredictions(), s.limits(calm).pd)
	}
	s.AttachMetrics(telemetry.NewRegistry())
	mispredict()
	if s.Mispredictions() != trustThreshold+1 || s.limits(calm).pd != 0 {
		t.Fatalf("re-attaching the registry forgot trust erosion: tally %d, p_d %v", s.Mispredictions(), s.limits(calm).pd)
	}
	if got := s.Metrics().Counter("sched.mispredictions").Value(); got != 1 {
		t.Fatalf("the new registry counted %d mispredictions, want the 1 it saw", got)
	}
}
