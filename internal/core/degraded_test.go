package core

import (
	"errors"
	"math"
	"testing"

	"sinan/internal/cluster"
	"sinan/internal/metrics"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/tensor"
)

// flakyModel wraps the deterministic fakeModel with a switchable failure
// mode, standing in for a prediction service that goes down mid-run.
type flakyModel struct {
	inner *fakeModel
	fail  bool
	calls int
}

var errHostDown = errors.New("model host down")

func (f *flakyModel) Meta() ModelMeta { return f.inner.Meta() }

func (f *flakyModel) PredictBatch(ctx *PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	f.calls++
	if f.fail {
		return nil, nil, errHostDown
	}
	return f.inner.PredictBatch(ctx, in)
}

func degradedTestScheduler(t *testing.T) (*flakyModel, *Scheduler, []float64) {
	t.Helper()
	app := testApp()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	m := &flakyModel{inner: &fakeModel{d: d, qos: 200, rmse: 10, needCores: 5}}
	s := NewScheduler(app, m, SchedulerOptions{})
	alloc := mkAlloc(app, 4)
	for i := 0; i < d.T+1; i++ { // fill history; model-driven from here on
		dec := s.Decide(stateFor(app, 20, alloc, 0.3))
		alloc = dec.Alloc
	}
	if s.Degraded() {
		t.Fatal("healthy warmup must not degrade")
	}
	return m, s, alloc
}

// A predictor outage mid-run must flip the scheduler into degraded mode
// (flagged on every decision), never reclaim capacity while blind, and
// recover to model-driven operation on the first successful probe.
func TestSchedulerDegradesOnPredictorErrorAndRecovers(t *testing.T) {
	app := testApp()
	m, s, alloc := degradedTestScheduler(t)

	m.fail = true
	for i := 0; i < 5; i++ {
		prev := append([]float64(nil), alloc...)
		dec := s.Decide(stateFor(app, 20, alloc, 0.2))
		if !dec.Degraded || !s.Degraded() {
			t.Fatalf("interval %d: scheduler should be degraded", i)
		}
		for j := range dec.Alloc {
			if dec.Alloc[j] < prev[j] {
				t.Fatalf("degraded fallback scaled tier %d down: %v → %v", j, prev[j], dec.Alloc[j])
			}
		}
		alloc = dec.Alloc
	}
	if s.PredictErrors() != 5 || s.DegradedIntervals() != 5 {
		t.Fatalf("counters: errors=%d degraded=%d, want 5/5", s.PredictErrors(), s.DegradedIntervals())
	}

	// High utilisation while degraded must provoke a conservative upscale.
	before := total(alloc)
	dec := s.Decide(stateFor(app, 20, alloc, 0.7))
	if total(dec.Alloc) <= before {
		t.Fatalf("degraded fallback should upscale hot tiers: %v → %v", before, total(dec.Alloc))
	}
	alloc = dec.Alloc

	m.fail = false
	dec = s.Decide(stateFor(app, 20, alloc, 0.3))
	if dec.Degraded || s.Degraded() {
		t.Fatal("successful model query should end degraded mode")
	}
	if s.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", s.Recoveries())
	}
	// Post-recovery grace: no reclamation until the victim window expires.
	preTotal := total(alloc)
	for i := 0; i < victimWindow-1; i++ {
		dec = s.Decide(stateFor(app, 20, alloc, 0.3))
		if total(dec.Alloc) < preTotal {
			t.Fatalf("scale-down %d intervals after recovery (window %d)", i+1, victimWindow)
		}
		alloc = dec.Alloc
		preTotal = total(alloc)
	}
}

// Violations observed while the model is away still trigger the emergency
// ramp — degraded mode weakens the optimiser, never the safety net.
func TestDegradedViolationTriggersEmergencyRamp(t *testing.T) {
	app := testApp()
	m, s, alloc := degradedTestScheduler(t)
	m.fail = true
	// Enter degraded mode on a quiet interval, then observe a violation.
	dec := s.Decide(stateFor(app, 20, alloc, 0.2))
	alloc = dec.Alloc
	dec = s.Decide(stateFor(app, 400, alloc, 0.9))
	if !dec.Degraded || dec.PViol != 1 {
		t.Fatalf("degraded violation decision: %+v", dec)
	}
	if total(dec.Alloc) <= total(alloc) {
		t.Fatalf("emergency ramp did not add capacity: %v → %v", total(alloc), total(dec.Alloc))
	}
	for i := range dec.Alloc {
		boosted := alloc[i]*2 + 0.5
		if boosted > app.Tiers[i].MaxCPU {
			boosted = app.Tiers[i].MaxCPU
		}
		if dec.Alloc[i] < boosted-1e-9 {
			t.Fatalf("tier %d ramped to %v, want %v", i, dec.Alloc[i], boosted)
		}
	}
}

// Missing tier stats are imputed with the last good reading (CPU limit
// refreshed from the in-force allocation) and tracked for staleness.
func TestImputeStatsHoldsLastValue(t *testing.T) {
	app := testApp()
	_, s, alloc := degradedTestScheduler(t)

	healthy := stateFor(app, 20, alloc, 0.4)
	s.imputeStats(healthy) // records lastGood
	want := healthy.Stats[0]

	st := stateFor(app, 20, alloc, 0.4)
	st.StatsOK = make([]bool, len(st.Stats))
	for i := range st.StatsOK {
		st.StatsOK[i] = i != 0
	}
	st.Stats[0] = want // zero it the way the injector would
	st.Stats[0].CPUUsage, st.Stats[0].RSS = 0, 0
	zeroed := st.Stats[0]
	s.imputeStats(st) // in place
	if st.Stats[0].CPUUsage != want.CPUUsage || st.Stats[0].RSS != want.RSS {
		t.Fatalf("tier 0 not imputed: got %+v (zeroed %+v, want %+v)", st.Stats[0], zeroed, want)
	}
	if st.Stats[0].CPULimit != alloc[0] {
		t.Fatalf("imputed CPU limit %v, want in-force alloc %v", st.Stats[0].CPULimit, alloc[0])
	}
	if s.staleFor[0] != 1 {
		t.Fatalf("staleness not tracked: staleFor=%d", s.staleFor[0])
	}
	// A healthy report clears the staleness state.
	s.imputeStats(stateFor(app, 20, alloc, 0.4))
	if s.staleFor[0] != 0 {
		t.Fatal("healthy report should clear staleness")
	}
}

// Past the staleness cap, hold-last-value stops being trustworthy and the
// bias pushes the silent tier up instead.
func TestStaleBiasUpscalesSilentTier(t *testing.T) {
	app := testApp()
	_, s, _ := degradedTestScheduler(t)
	s.staleFor[0] = staleCap + 1
	alloc := mkAlloc(app, 2)
	out := s.biasStale(append([]float64(nil), alloc...))
	if out[0] <= alloc[0] {
		t.Fatalf("stale tier not biased up: %v", out[0])
	}
	for i := 1; i < len(out); i++ {
		if out[i] != alloc[i] {
			t.Fatalf("fresh tier %d moved: %v", i, out[i])
		}
	}
}

// While a tier's stats are missing, candidate enumeration must not propose
// shrinking it: scale-down decisions need evidence.
func TestNoShrinkCandidatesForMissingTier(t *testing.T) {
	app := testApp()
	st := stateFor(app, 20, mkAlloc(app, 4), 0.2)
	o := obsFor(app, st)
	o.stale[1] = 1
	c := newCandidates(len(app.Tiers))
	enumerate(c, o)
	for r := range c.kind {
		if c.row(r)[1] < st.Alloc[1] {
			t.Fatalf("candidate %d shrinks missing tier 1: %v < %v", r, c.row(r)[1], st.Alloc[1])
		}
	}
}

// A total stats-plane blackout — every tier StatsOK=false with zeroed rows
// from the very first interval, so there is no "last good" reading to hold —
// is the fail-safe floor: the scheduler must keep deciding without panics,
// never reclaim capacity blind, and once the staleness cap lapses push the
// silent tiers up.
func TestSchedulerSurvivesTotalStatsBlackout(t *testing.T) {
	app := testApp()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	s := NewScheduler(app, &fakeModel{d: d, qos: 200, rmse: 10, needCores: 5}, SchedulerOptions{})
	alloc := mkAlloc(app, 2)

	blackout := func(alloc []float64) runner.State {
		st := stateFor(app, 0, alloc, 0)
		st.Perc = metrics.Percentiles{} // a silent plane reports no latency either
		st.StatsOK = make([]bool, len(st.Stats))
		for i := range st.Stats {
			st.Stats[i] = cluster.Stats{}
		}
		return st
	}

	for i := 0; i < 3*staleCap; i++ {
		prev := append([]float64(nil), alloc...)
		dec := s.Decide(blackout(alloc))
		if dec.Alloc == nil {
			t.Fatalf("interval %d: nil allocation under blackout", i)
		}
		for j := range dec.Alloc {
			if dec.Alloc[j] < prev[j]-1e-9 {
				t.Fatalf("interval %d: blind scale-down of tier %d: %v → %v",
					i, j, prev[j], dec.Alloc[j])
			}
			if dec.Alloc[j] > app.Tiers[j].MaxCPU+1e-9 || dec.Alloc[j] < app.Tiers[j].MinCPU-1e-9 {
				t.Fatalf("interval %d: tier %d out of bounds: %v", i, j, dec.Alloc[j])
			}
		}
		alloc = dec.Alloc
	}
	for i, n := range s.staleFor {
		if n != 3*staleCap {
			t.Fatalf("tier %d staleness = %d, want %d", i, n, 3*staleCap)
		}
	}
	// Past the cap the stale bias must actually have moved capacity up.
	start := mkAlloc(app, 2)
	if total(alloc) <= total(start) {
		t.Fatalf("stale bias never upscaled: %v → %v cores", total(start), total(alloc))
	}

	// Recovery: one complete interval clears every tier's staleness.
	s.Decide(stateFor(app, 20, alloc, 0.3))
	for i, n := range s.staleFor {
		if n != 0 {
			t.Fatalf("tier %d staleness survived recovery: %d", i, n)
		}
	}
}

// garbageDownModel answers like its fakeModel except on scale-down
// candidates (rows allocating less than cur in total), whose p99 or
// violation probability it replaces with a value no comparison can order.
type garbageDownModel struct {
	*fakeModel
	cur        float64
	p99, pviol float64 // substituted on down candidates unless zero
}

func (g *garbageDownModel) PredictBatch(ctx *PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	pred, pv, err := g.fakeModel.PredictBatch(ctx, in)
	for i := range pv {
		if total(in.RC.Data[i*g.d.N:(i+1)*g.d.N]) >= g.cur-1e-9 {
			continue
		}
		if g.p99 != 0 {
			pred.Set(g.p99, i, g.d.M-1)
		}
		if g.pviol != 0 {
			pv[i] = g.pviol
		}
	}
	return pred, pv, err
}

// A NaN p99 or violation probability makes every filter comparison false,
// which used to read as "this reclaim is safe". Garbage on a down candidate
// must instead count as a predictor failure: the interval degrades, the
// error is counted, and nothing is reclaimed.
func TestGarbagePredictionOnDownCandidateNeverReclaims(t *testing.T) {
	app := testApp()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	for name, g := range map[string]*garbageDownModel{
		"NaN p99":       {p99: math.NaN()},
		"+Inf p99":      {p99: math.Inf(1)},
		"NaN pviol":     {pviol: math.NaN()},
		"negative prob": {pviol: -0.5},
	} {
		// needCores far below the allocation: every reclaim looks safe.
		g.fakeModel = &fakeModel{d: d, qos: 200, rmse: 10, needCores: 5}
		alloc := mkAlloc(app, 4)
		g.cur = total(alloc)
		s := warmScheduler(app, g.fakeModel, alloc)
		s.M = g
		dec := s.Decide(stateFor(app, 20, alloc, 0.3))
		for i := range dec.Alloc {
			if dec.Alloc[i] < alloc[i] {
				t.Fatalf("%s: tier %d reclaimed on a garbage prediction: %v → %v", name, i, alloc[i], dec.Alloc[i])
			}
		}
		if s.PredictErrors() != 1 || !dec.Degraded {
			t.Fatalf("%s: predict errors %d, degraded %v; want the predictor-error path", name, s.PredictErrors(), dec.Degraded)
		}
	}
}
