package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/dataset"
	"sinan/internal/metrics"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/tensor"
)

// chaosModel emits adversarial predictions driven by a seed, to probe
// scheduler invariants under arbitrary model behaviour.
type chaosModel struct {
	d    nn.Dims
	qos  float64
	seed uint64
	// fail is the share of queries that error instead of answering, half of
	// them as load sheds.
	fail float64
	// garbage is set when the last answer carried a NaN, infinite or
	// negative value (about one answer in four does).
	garbage bool
}

var errChaosDown = errors.New("chaos: model host down")

func (f *chaosModel) Meta() ModelMeta {
	return ModelMeta{D: f.d, QoSMS: f.qos, RMSEValid: 25, Pd: 0.2, Pu: 0.4}
}

func (f *chaosModel) next() float64 {
	f.seed = f.seed*6364136223846793005 + 1442695040888963407
	return float64(f.seed>>11) / float64(1<<53)
}

func (f *chaosModel) PredictShared(_ *PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	if f.fail > 0 && f.next() < f.fail {
		if f.next() < 0.5 {
			return nil, nil, testShedErr{}
		}
		return nil, nil, errChaosDown
	}
	b := in.Batch()
	pred := tensor.New(b, f.d.M)
	pv := make([]float64, b)
	for i := 0; i < b; i++ {
		lat := f.next() * f.qos * 2
		for m := 0; m < f.d.M; m++ {
			pred.Set(lat, i, m)
		}
		pv[i] = f.next()
	}
	f.garbage = f.next() < 0.25
	if f.garbage {
		i := int(f.next() * float64(b))
		switch int(f.next() * 4) {
		case 0:
			pred.Set(math.NaN(), i, f.d.M-1)
		case 1:
			pred.Set(math.Inf(1), i, f.d.M-1)
		case 2:
			pv[i] = math.NaN()
		default:
			pv[i] = -pv[i] - 0.1
		}
	}
	return pred, pv, nil
}

// randomCarried draws a scheduler state from every regime Decide can start
// in — some no sequence of intervals reaches, such as degraded inside a
// cool-down: history windows empty to full, the last prediction held or not,
// trust on either side of trustThreshold, degraded or not, inside a
// cool-down and the post-recovery window or not, anywhere on the brownout
// ladder, each tier recently scaled down or not and silent for up to past
// staleCap intervals.
func randomCarried(rng *rand.Rand, app *apps.App, d nn.Dims, qos float64) carried {
	n := len(app.Tiers)
	c := carried{
		statHist:      metrics.NewHistory[[]float64](d.T),
		latHist:       metrics.NewHistory[[]float64](d.T),
		lastPredP99:   rng.Float64() * 2 * qos,
		lastPredValid: rng.Intn(2) == 0,
		downAge:       make([]int, n),
		mispredicted:  trustThreshold - 2 + rng.Intn(5),
		cooldown:      rng.Intn(victimWindow + 1),
		degraded:      rng.Intn(2) == 0,
		noDownFor:     rng.Intn(victimWindow + 1),
		lastGood:      make([]cluster.Stats, n),
		staleFor:      make([]int, n),
		brownLevel:    rng.Intn(BrownoutHold + 1),
		brownGood:     rng.Intn(brownoutRecover),
		allocTurn:     rng.Intn(2),
	}
	for i := 0; i < n; i++ {
		c.downAge[i] = rng.Intn(2 * victimWindow)
		c.staleFor[i] = rng.Intn(staleCap + 3)
		c.lastGood[i] = stateFor(app, 0, mkAlloc(app, 1+3*rng.Float64()), rng.Float64()).Stats[i]
	}
	for k := rng.Intn(d.T + 2); k > 0; k-- {
		st := stateFor(app, 2*qos*rng.Float64(), mkAlloc(app, 1+3*rng.Float64()), rng.Float64())
		dataset.PushWindow(c.statHist, c.latHist, d, st.Stats, st.Perc, 2.5*qos)
	}
	return c
}

// silence drops tier reports from st the way the stats plane does (StatsOK
// false, the row zeroed): none (half the intervals), a random subset, or
// every tier, in which case the interval's latency is missing too. It
// reports a total blackout.
func silence(rng *rand.Rand, st *runner.State) (blackout bool) {
	mode := max(rng.Intn(6)-2, 0)
	if mode == 0 {
		return false
	}
	st.StatsOK = make([]bool, len(st.Stats))
	for i := range st.Stats {
		st.StatsOK[i] = mode == 2 && rng.Intn(2) == 0
		if !st.StatsOK[i] {
			st.Stats[i] = cluster.Stats{}
		}
	}
	if mode == 3 {
		st.Perc = metrics.Percentiles{}
	}
	return mode == 3
}

// recordConsistent reports whether a decision's record agrees with its
// branch: rows were scored exactly on the paths that query the model, both
// ramps predict a violation, a failed query is decided by the fallback, and
// only the model's choice carries a predicted p99.
func recordConsistent(dec runner.Decision) bool {
	queried := false
	switch dec.Branch {
	case runner.BranchPredictError, runner.BranchPredictShed:
		queried = true
		if !dec.Degraded {
			return false
		}
	case runner.BranchNoSafeRow:
		queried = true
		if dec.PViol != 1 {
			return false
		}
	case runner.BranchChosen:
		queried = true
	case runner.BranchSurprised:
		if dec.PViol != 1 {
			return false
		}
	}
	if dec.PredP99MS != 0 && dec.Branch != runner.BranchChosen {
		return false
	}
	return queried == (dec.Scored > 0)
}

// Property: whatever regime the scheduler starts in, whatever the model
// answers (garbage and errors included) and whichever tiers the stats plane
// loses, every decision keeps DESIGN.md §8 "Invariants": inside per-tier
// bounds, on the 0.1-core grid, finite, and no tier reclaimed while
// degraded, inside the post-recovery window, with the tail past QoS, under
// a total stats blackout, or on an answer that carried garbage. Its record
// agrees with its branch (recordConsistent), and every branch is reached.
func TestSchedulerDecisionsAlwaysValidProperty(t *testing.T) {
	app := testApp()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	// Intervals that reclaimed, and intervals whose guard had a reclaim to
	// forbid: the property shows nothing unless both occur.
	var reclaims, guarded int
	var branches [runner.BranchChosen + 1]int
	f := func(seed uint64, regime int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(regime))
		m := &chaosModel{d: d, qos: 200, seed: seed | 1, fail: [...]float64{0, 0.25, 1}[rng.Intn(3)]}
		s := NewScheduler(app, m, SchedulerOptions{})
		s.carried = randomCarried(rng, app, d, m.qos)
		alloc := mkAlloc(app, 2)
		for step := 0; step < int(steps%40)+5; step++ {
			// Half the intervals quiet, the rest anywhere up to 3×QoS.
			p99 := rng.Float64() * m.qos * [...]float64{0.7, 3}[rng.Intn(2)]
			st := stateFor(app, p99, alloc, 0.8*rng.Float64())
			blackout := silence(rng, &st)
			// The post-recovery window as limits computes it: what is left of
			// the carried one, or a whole one if this query ends degraded mode.
			window, wasDegraded := max(s.carried.noDownFor-1, 0), s.carried.degraded
			m.garbage = false
			dec := s.Decide(st)
			if dec.Alloc == nil || !recordConsistent(dec) {
				return false
			}
			branches[dec.Branch]++
			if wasDegraded && !dec.Degraded {
				window = victimWindow
			}
			hot := st.Perc.P99() > m.qos || window > 0
			noReclaim := m.garbage || dec.Degraded || blackout || hot
			if noReclaim && s.carried.statHist.Full() {
				guarded++
			}
			for i, a := range dec.Alloc {
				if a < alloc[i] {
					if noReclaim {
						return false
					}
					reclaims++
				}
				if math.IsNaN(a) || math.IsInf(a, 0) {
					return false
				}
				if a < app.Tiers[i].MinCPU-1e-9 || a > app.Tiers[i].MaxCPU+1e-9 {
					return false
				}
				// 0.1-core quantisation.
				if math.Abs(a*10-math.Round(a*10)) > 1e-6 {
					return false
				}
			}
			alloc = dec.Alloc
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	t.Logf("tier reclaims %d, guarded intervals %d, branches %v", reclaims, guarded, branches)
	if reclaims == 0 || guarded == 0 {
		t.Fatal("the random regimes never reclaimed, or never forbade a reclaim")
	}
	for b := runner.BranchSurprised; b <= runner.BranchChosen; b++ {
		if branches[b] == 0 {
			t.Fatalf("the random regimes never reached branch %v", b)
		}
	}
}

// Property: the scheduler is deterministic — identical state sequences
// produce identical decision sequences.
func TestSchedulerDeterministicProperty(t *testing.T) {
	app := testApp()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	run := func() [][]float64 {
		m := &fakeModel{d: d, qos: 200, rmse: 10, needCores: 20}
		s := NewScheduler(app, m, SchedulerOptions{})
		alloc := mkAlloc(app, 4)
		var decs [][]float64
		for step := 0; step < 30; step++ {
			p99 := 20.0
			if step%7 == 3 {
				p99 = 230
			}
			dec := s.Decide(stateFor(app, p99, alloc, 0.3))
			alloc = dec.Alloc
			decs = append(decs, append([]float64(nil), alloc...))
		}
		return decs
	}
	a, b := run(), run()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("decision diverged at step %d tier %d", i, j)
			}
		}
	}
}

// Property: once the ultra-safe override is active (all history far below
// QoS), the scheduler makes progress reclaiming even under a paranoid
// violation classifier.
func TestSchedulerUltraSafeOverride(t *testing.T) {
	app := testApp()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	// Model predicting low latency but certain violation for everything.
	m := &paranoidModel{d: d, qos: 200}
	s := NewScheduler(app, m, SchedulerOptions{})
	alloc := mkAlloc(app, 4)
	for i := 0; i < d.T+2; i++ { // fill history with 20ms intervals
		dec := s.Decide(stateFor(app, 20, alloc, 0.2))
		alloc = dec.Alloc
	}
	start := total(alloc)
	for i := 0; i < 20; i++ {
		dec := s.Decide(stateFor(app, 20, alloc, 0.2))
		alloc = dec.Alloc
	}
	if total(alloc) >= start {
		t.Fatalf("ultra-safe override failed to unlock reclaim: %v → %v", start, total(alloc))
	}
}

// paranoidModel predicts tiny latency but pviol = 0.99 for every candidate.
type paranoidModel struct {
	d   nn.Dims
	qos float64
}

func (p *paranoidModel) Meta() ModelMeta {
	return ModelMeta{D: p.d, QoSMS: p.qos, RMSEValid: 10, Pd: 0.2, Pu: 0.4}
}

func (p *paranoidModel) PredictShared(_ *PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	b := in.Batch()
	pred := tensor.New(b, p.d.M)
	pv := make([]float64, b)
	for i := 0; i < b; i++ {
		for m := 0; m < p.d.M; m++ {
			pred.Set(15, i, m)
		}
		pv[i] = 0.99
	}
	return pred, pv, nil
}

var _ runner.Policy = (*Scheduler)(nil)
