package core

import (
	"slices"
	"testing"

	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// shedModel wraps the deterministic fakeModel with switchable shed and
// slow-cost modes — a stand-in for a saturated prediction service that is
// alive but refusing (or delaying) work.
type shedModel struct {
	inner   *fakeModel
	shed    bool
	costMS  float64 // reported via CostReporter on successful calls
	batches []int   // batch size of each query, shed or answered
}

type testShedErr struct{}

func (testShedErr) Error() string    { return "test: query shed" }
func (testShedErr) Overloaded() bool { return true }

func (m *shedModel) Meta() ModelMeta { return m.inner.Meta() }

func (m *shedModel) LastPredictMS() float64 { return m.costMS }

func (m *shedModel) PredictShared(ctx *PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	m.batches = append(m.batches, in.Batch())
	if m.shed {
		return nil, nil, testShedErr{}
	}
	return m.inner.PredictShared(ctx, in)
}

// topKBatch bounds a query at BrownoutTopK: the hold row, every single-tier
// op on the top-k tiers of each direction, one batch row, up-all and victim.
// Hotel's full set is several times larger.
const topKBatch = 1 + (len(downOps)+len(upOps))*brownoutTopK + 3

func brownoutTestScheduler(t *testing.T, opts SchedulerOptions) (*shedModel, *Scheduler, []float64) {
	t.Helper()
	app := testApp()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	m := &shedModel{inner: &fakeModel{d: d, qos: 200, rmse: 10, needCores: 5}}
	s := NewScheduler(app, m, opts)
	alloc := mkAlloc(app, 4)
	for i := 0; i < d.T+1; i++ {
		dec := s.Decide(stateFor(app, 20, alloc, 0.3))
		alloc = dec.Alloc
	}
	if s.carried.brownLevel != BrownoutNone {
		t.Fatal("healthy warmup must not brown out")
	}
	return m, s, alloc
}

// Sheds escalate the ladder immediately (one level per shed query), the
// decision records the level that shaped its enumeration, and recovery is
// hysteretic: brownoutRecover consecutive healthy queries per step down.
func TestBrownoutEscalatesOnShedsAndRecoversHysteretically(t *testing.T) {
	app := testApp()
	m, s, alloc := brownoutTestScheduler(t, SchedulerOptions{})

	m.shed = true
	wantLevels := []int{BrownoutNone, BrownoutTopK, BrownoutHold, BrownoutHold}
	for i, want := range wantLevels {
		dec := s.Decide(stateFor(app, 20, alloc, 0.3))
		// What the ladder saves: each shed shrinks the next question.
		if asked := m.batches[len(m.batches)-1]; want == BrownoutTopK && asked > topKBatch || want == BrownoutHold && asked != 1 {
			t.Fatalf("shed %d: asked an overloaded model %d candidates at level %d", i, asked, want)
		}
		if dec.Brownout != want {
			t.Fatalf("shed %d: decision level %d, want %d", i, dec.Brownout, want)
		}
		if !dec.Degraded {
			t.Fatalf("shed %d: a shed interval is decided by the fallback", i)
		}
		alloc = dec.Alloc
	}
	if s.PredictSheds() != len(wantLevels) {
		t.Fatalf("PredictSheds = %d, want %d", s.PredictSheds(), len(wantLevels))
	}
	if s.carried.brownLevel != BrownoutHold {
		t.Fatalf("level = %d after sustained shedding, want hold", s.carried.brownLevel)
	}

	// Recovery: each successful query is a batch-of-one probe at hold level;
	// brownoutRecover of them step the ladder down one level at a time.
	m.shed = false
	for i := 0; i < brownoutRecover; i++ {
		dec := s.Decide(stateFor(app, 20, alloc, 0.3))
		if dec.Brownout != BrownoutHold {
			t.Fatalf("probe %d should still run at hold level, got %d", i, dec.Brownout)
		}
		if got := m.batches[len(m.batches)-1]; got != 1 {
			t.Fatalf("hold-level query batch = %d, want 1", got)
		}
		if i == 0 && s.carried.brownLevel != BrownoutHold {
			t.Fatalf("one healthy probe stepped the ladder down to %d: one lucky query must not flap it", s.carried.brownLevel)
		}
		alloc = dec.Alloc
	}
	if s.carried.brownLevel != BrownoutTopK {
		t.Fatalf("level = %d after %d healthy probes, want top-k", s.carried.brownLevel, brownoutRecover)
	}
	// A single shed resets the healthy streak and re-escalates immediately.
	m.shed = true
	s.Decide(stateFor(app, 20, alloc, 0.3))
	if s.carried.brownLevel != BrownoutHold {
		t.Fatalf("shed at top-k should re-escalate to hold, got %d", s.carried.brownLevel)
	}
}

// Successful-but-slow queries (cost above SlowPredictMS) are overload
// pressure too: prediction latency eats the decision interval before it
// turns into timeouts.
func TestBrownoutSlowQueriesEscalate(t *testing.T) {
	app := testApp()
	m, s, alloc := brownoutTestScheduler(t, SchedulerOptions{})

	m.costMS = s.Opts.SlowPredictMS + 100
	dec := s.Decide(stateFor(app, 20, alloc, 0.3))
	alloc = dec.Alloc
	if dec.Degraded {
		t.Fatal("a slow success is not a degraded interval")
	}
	m.costMS = 0
	dec = s.Decide(stateFor(app, 20, alloc, 0.3))
	alloc = dec.Alloc
	if asked := m.batches[len(m.batches)-1]; asked > topKBatch {
		t.Fatalf("the query after a slow one asked %d candidates, want at most the top-k %d", asked, topKBatch)
	}
	if s.carried.brownLevel != BrownoutTopK {
		t.Fatalf("level = %d after a slow query, want top-k", s.carried.brownLevel)
	}
	if s.PredictErrors() != 0 || s.PredictSheds() != 0 {
		t.Fatalf("slow successes must not count as errors: errors=%d sheds=%d",
			s.PredictErrors(), s.PredictSheds())
	}

	// Healthy-again queries recover with the same hysteresis.
	for i := 1; i < brownoutRecover; i++ {
		alloc = s.Decide(stateFor(app, 20, alloc, 0.3)).Alloc
	}
	if s.carried.brownLevel != BrownoutNone {
		t.Fatalf("level = %d after recovery, want none", s.carried.brownLevel)
	}
}

// The ladder shrinks the enumerated candidate set: top-k budgets single-tier
// operations to the hottest/coldest tiers, hold level keeps only the hold
// candidate.
func TestBrownoutShrinksCandidateEnumeration(t *testing.T) {
	app := testApp()
	o := obsFor(app, stateFor(app, 20, mkAlloc(app, 4), 0.3))
	c := newCandidates(len(app.Tiers))

	enumerate(c, o)
	full := len(c.kind)
	o.level = BrownoutHold
	enumerate(c, o)
	if len(c.kind) != 1 || c.kind[0] != kindHold {
		t.Fatalf("hold level should enumerate exactly the hold candidate, got %v", c.kind)
	}
	o.level = BrownoutTopK
	enumerate(c, o)
	// Hotel has far more tiers than the top-k budget, so the restriction
	// must strictly shrink the batch.
	if len(c.kind) >= full {
		t.Fatalf("top-k level did not shrink the batch: %d vs full %d", len(c.kind), full)
	}
	// Safety candidates survive the top-k cut: hold and at least one
	// capacity-adding variant.
	if !slices.Contains(c.kind, kindHold) || !slices.Contains(c.kind, kindUpAll) {
		t.Fatalf("top-k enumeration lost safety candidates: %v", c.kind)
	}
}

// NoBrownout pins the ladder at full enumeration no matter what the
// prediction path does — the rigid baseline for the overload experiment.
func TestNoBrownoutStaysRigid(t *testing.T) {
	app := testApp()
	m, s, alloc := brownoutTestScheduler(t, SchedulerOptions{NoBrownout: true})

	m.shed = true
	for i := 0; i < 4; i++ {
		dec := s.Decide(stateFor(app, 20, alloc, 0.3))
		if dec.Brownout != BrownoutNone {
			t.Fatalf("rigid scheduler reported brownout level %d", dec.Brownout)
		}
		alloc = dec.Alloc
	}
	if s.carried.brownLevel != BrownoutNone || s.BrownoutIntervals() != 0 {
		t.Fatalf("rigid scheduler browned out: level=%d intervals=%d",
			s.carried.brownLevel, s.BrownoutIntervals())
	}
	// Sheds are still classified and counted even with the ladder disabled.
	if s.PredictSheds() != 4 {
		t.Fatalf("PredictSheds = %d, want 4", s.PredictSheds())
	}
}

// IsOverload classifies by the Overloaded() marker anywhere in the wrap
// chain, and nothing else.
func TestIsOverloadClassification(t *testing.T) {
	if !IsOverload(testShedErr{}) {
		t.Fatal("marker error should classify as overload")
	}
	if IsOverload(errHostDown) {
		t.Fatal("plain error must not classify as overload")
	}
	if IsOverload(nil) {
		t.Fatal("nil is not an overload")
	}
}
