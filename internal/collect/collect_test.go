package collect

import (
	"math"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/baselines"
	"sinan/internal/cluster"
	"sinan/internal/metrics"
	"sinan/internal/runner"
)

func TestInfoGainPrefersUnexplored(t *testing.T) {
	fresh := armStat{}
	seasoned := armStat{n: 100, k: 50}
	if fresh.infoGain() <= seasoned.infoGain() {
		t.Fatalf("unexplored arm gain %v should exceed well-sampled arm %v",
			fresh.infoGain(), seasoned.infoGain())
	}
}

func TestInfoGainVanishesForCertainArms(t *testing.T) {
	// Arms with p ≈ 0 or p ≈ 1 carry almost no information (Sec. 4.2).
	sure := armStat{n: 200, k: 200}
	unsure := armStat{n: 200, k: 100}
	if sure.infoGain() >= unsure.infoGain() {
		t.Fatalf("deterministic arm gain %v should be below p=0.5 arm %v",
			sure.infoGain(), unsure.infoGain())
	}
	if sure.infoGain() < 0 {
		t.Fatal("information gain must be non-negative")
	}
}

func TestQuantGranularity(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{1.23, 1.2}, {1.31, 1.4}, {0.19, 0.2}, {2.5, 2.6},
	} {
		if got := quant(tc.in); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("quant(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func mkState(p99 float64, alloc []float64, usage float64) runner.State {
	stats := make([]cluster.Stats, len(alloc))
	for i := range stats {
		stats[i] = cluster.Stats{CPUUsage: usage, CPULimit: alloc[i]}
	}
	var perc metrics.Percentiles
	perc.Values[metrics.NumPercentiles-1] = p99
	perc.Count = 100
	return runner.State{Stats: stats, Perc: perc, Alloc: alloc, RPS: 100, QoSMS: 200}
}

func TestBanditRecoversWhenBeyondRegion(t *testing.T) {
	app := apps.NewHotelReservation()
	b := NewBandit(app, 1)
	alloc := make([]float64, len(app.Tiers))
	for i := range alloc {
		alloc[i] = 1
	}
	// p99 far beyond QoS·1.2 → every tier must scale up.
	dec := b.Decide(mkState(500, alloc, 0.5))
	for i, a := range dec.Alloc {
		if a <= alloc[i] {
			t.Fatalf("tier %d not upscaled in recovery: %v", i, a)
		}
	}
}

func TestBanditNoReclaimAboveQoS(t *testing.T) {
	app := apps.NewHotelReservation()
	b := NewBandit(app, 2)
	alloc := make([]float64, len(app.Tiers))
	for i := range alloc {
		alloc[i] = 2
	}
	// Above QoS but inside the explored region: never scale down.
	dec := b.Decide(mkState(210, alloc, 0.2))
	for i, a := range dec.Alloc {
		if a < alloc[i] {
			t.Fatalf("tier %d reclaimed while violating QoS: %v", i, a)
		}
	}
}

func TestBanditUtilCapBlocksStarvation(t *testing.T) {
	app := apps.NewHotelReservation()
	b := NewBandit(app, 3)
	alloc := make([]float64, len(app.Tiers))
	for i := range alloc {
		alloc[i] = 1
	}
	// Usage 0.9 of limit 1: any downscale would exceed UtilCap 0.85.
	dec := b.Decide(mkState(50, alloc, 0.9))
	for i, a := range dec.Alloc {
		if a < alloc[i] {
			t.Fatalf("tier %d downscaled past utilization cap: %v", i, a)
		}
	}
}

func TestBanditRespectsBounds(t *testing.T) {
	app := apps.NewHotelReservation()
	b := NewBandit(app, 4)
	alloc := make([]float64, len(app.Tiers))
	for i := range alloc {
		alloc[i] = app.Tiers[i].MaxCPU
	}
	for step := 0; step < 50; step++ {
		dec := b.Decide(mkState(50, alloc, 0.1))
		for i, a := range dec.Alloc {
			if a < b.MinCPU[i]-1e-9 || a > b.MaxCPU[i]+1e-9 {
				t.Fatalf("tier %d allocation %v outside [%v,%v]", i, a, b.MinCPU[i], b.MaxCPU[i])
			}
		}
		alloc = dec.Alloc
	}
}

func TestBanditExploresDownward(t *testing.T) {
	// With QoS comfortably met and low utilization, the explorer must
	// actually try reclaiming resources (that is its purpose).
	app := apps.NewHotelReservation()
	b := NewBandit(app, 5)
	alloc := make([]float64, len(app.Tiers))
	for i := range alloc {
		alloc[i] = app.Tiers[i].MaxCPU
	}
	start := sum(alloc)
	for step := 0; step < 30; step++ {
		dec := b.Decide(mkState(50, alloc, 0.05))
		alloc = dec.Alloc
	}
	if sum(alloc) >= start {
		t.Fatalf("explorer never reclaimed: %v → %v", start, sum(alloc))
	}
}

func TestRandomCollectorBounds(t *testing.T) {
	app := apps.NewSocialNetwork()
	r := NewRandom(app, 6)
	alloc := make([]float64, len(app.Tiers))
	for i := range alloc {
		alloc[i] = 1
	}
	seen := map[float64]bool{}
	for step := 0; step < 20; step++ {
		dec := r.Decide(mkState(100, alloc, 0.5))
		for i, a := range dec.Alloc {
			if a < r.MinCPU[i]-1e-9 || a > r.MaxCPU[i]+1e-9 {
				t.Fatalf("random allocation out of bounds: %v", a)
			}
			seen[a] = true
		}
	}
	if len(seen) < 10 {
		t.Fatalf("random explorer barely varies: %d distinct values", len(seen))
	}
}

func TestSweepPattern(t *testing.T) {
	p := SweepPattern{MinRPS: 100, MaxRPS: 400, SegmentLen: 30, Seed: 7}
	levels := map[float64]bool{}
	for ts := 0.0; ts < 600; ts += 30 {
		v := p.RPS(ts)
		if v < 100 || v > 400 {
			t.Fatalf("sweep out of range: %v", v)
		}
		levels[v] = true
		// Constant within a segment.
		if p.RPS(ts+15) != v {
			t.Fatal("sweep should be constant within a segment")
		}
	}
	if len(levels) < 10 {
		t.Fatalf("sweep visits too few levels: %d", len(levels))
	}
}

func TestCollectRunProducesBoundaryRichDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("collection run")
	}
	app := apps.NewHotelReservation()
	ds := Run(Config{
		App:      app,
		Policy:   NewBandit(app, 8),
		Pattern:  SweepPattern{MinRPS: 500, MaxRPS: 2500, SegmentLen: 30, Seed: 8},
		Duration: 400,
		Seed:     8,
		Dims:     DefaultDims(app),
		K:        5,
	})
	if ds.Len() < 300 {
		t.Fatalf("dataset too small: %d", ds.Len())
	}
	// The bandit's whole point: the dataset must include both QoS-meeting
	// and QoS-violating samples (Fig. 9).
	rate := ds.ViolationRate()
	if rate == 0 {
		t.Fatal("bandit collection found no boundary violations")
	}
	if rate > 0.9 {
		t.Fatalf("collection mostly violating (%v): exploration is broken", rate)
	}
}

func TestAutoscaleCollectionSeesFewViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("collection run")
	}
	app := apps.NewHotelReservation()
	bandit := Run(Config{
		App: app, Policy: NewBandit(app, 9),
		Pattern:  SweepPattern{MinRPS: 500, MaxRPS: 2500, SegmentLen: 30, Seed: 9},
		Duration: 300, Seed: 9, Dims: DefaultDims(app), K: 5,
	})
	autosc := Run(Config{
		App: app, Policy: baselines.NewAutoScaleCons(),
		Pattern:  SweepPattern{MinRPS: 500, MaxRPS: 2500, SegmentLen: 30, Seed: 9},
		Duration: 300, Seed: 9, Dims: DefaultDims(app), K: 5,
	})
	if autosc.ViolationRate() >= bandit.ViolationRate() {
		t.Fatalf("autoscale data (%v) should contain fewer violations than bandit data (%v)",
			autosc.ViolationRate(), bandit.ViolationRate())
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// An arm's key is its five fields packed into one word: keys differ whenever
// a field differs, at both ends of every field's range, and a value that
// does not fit its field — negative or too large — panics instead of aliasing
// another arm.
func TestArmKeyPacksEveryFieldAndRejectsOverflow(t *testing.T) {
	lo := [5]int{0, 0, 0, -1, 0}
	hi := [5]int{1<<12 - 1, 1<<24 - 1, 1<<8 - 1, 2, 1<<16 - 1} // diffB is stored as diffB+1 in two bits
	key := func(f [5]int) armKey { return newArmKey(f[0], f[1], f[2], f[3], f[4]) }
	seen := map[armKey][5]int{}
	for mask := 0; mask < 1<<5; mask++ {
		f := lo
		for i := range f {
			if mask&(1<<i) != 0 {
				f[i] = hi[i]
			}
		}
		if prev, dup := seen[key(f)]; dup {
			t.Fatalf("arms %v and %v share key %#x", prev, f, key(f))
		}
		seen[key(f)] = f
	}
	for i := range lo {
		for _, v := range []int{lo[i] - 1, hi[i] + 1} {
			f := lo
			f[i] = v
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("field %d = %d was packed, want a panic", i, v)
					}
				}()
				key(f)
			}()
		}
	}
}
