package lifecycle

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/workload"
)

// managerScenario runs one lifecycle-managed simulation: the live model
// starts stale (believes 4 total cores suffice when the ground truth is 8),
// so reclaiming causes QoS violations, the drift EWMA rises, and the
// manager starts retraining. What happens next depends on what retrain
// hands back.
func managerScenario(t *testing.T, retrain RetrainFunc, mut func(*Config)) (*Manager, *runner.Result) {
	t.Helper()
	app := apps.NewHotelReservation()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	qos := app.QoSMS
	stale := &fakeModel{d: d, qos: qos, eval: truthEval(qos, 4)}
	cfg := Config{
		Gate:       GateConfig{Holdout: buildHoldout(d, qos, 12)},
		Retrain:    retrain,
		MinSamples: 15,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := NewManager(app, stale, core.SchedulerOptions{UtilCap: 0.99}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := runner.Run(runner.Config{
		App: app, Policy: m, Pattern: workload.Constant(1000),
		Duration: 300, Seed: 31, Warmup: 20, KeepTrace: true,
	})
	return m, res
}

// upTo bounds a scenario's retrain attempts: attempts after the n-th fail,
// which the manager counts as a failed retrain and backs off from.
func upTo(n int, retrain RetrainFunc) RetrainFunc {
	return func(live core.Predictor, fresh *dataset.Dataset, attempt int) (core.Predictor, error) {
		if attempt > n {
			return nil, fmt.Errorf("attempt %d: scenario allows %d", attempt, n)
		}
		return retrain(live, fresh, attempt)
	}
}

// assertAlwaysServed is the zero-unavailability check every scenario must
// pass: across swaps, rejections, and rollbacks the prediction path never
// errored and the scheduler never fell back to degraded mode.
func assertAlwaysServed(t *testing.T, res *runner.Result) {
	t.Helper()
	for _, row := range res.Trace {
		if row.Branch == runner.BranchPredictError || row.Branch == runner.BranchPredictShed {
			t.Fatalf("prediction path errored at t=%.0f across swaps", row.Time)
		}
		if row.Degraded {
			t.Fatalf("scheduler degraded at t=%.0f — predictor was unavailable", row.Time)
		}
	}
}

func TestManagerGateRejectsPoisonedThenPromotesGenuine(t *testing.T) {
	app := apps.NewHotelReservation()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	qos := app.QoSMS
	poisoned := &fakeModel{d: d, qos: qos, eval: func(float64, bool) (float64, float64) { return 1e5, 0.5 }}
	good := &fakeModel{d: d, qos: qos, eval: truthEval(qos, 16)}

	m, res := managerScenario(t, upTo(2, func(live core.Predictor, fresh *dataset.Dataset, attempt int) (core.Predictor, error) {
		if attempt == 1 {
			return poisoned, nil
		}
		return good, nil
	}), nil)

	if m.Retrains() < 2 {
		t.Fatalf("drift detector triggered %d retrains, want >= 2", m.Retrains())
	}
	if m.GateRejected() < 1 {
		t.Fatalf("gate never rejected the poisoned candidate (accepted=%d rejected=%d)",
			m.GateAccepted(), m.GateRejected())
	}
	if m.GateAccepted() < 1 || m.Promotions() < 1 {
		t.Fatalf("genuine candidate never promoted (accepted=%d promotions=%d)",
			m.GateAccepted(), m.Promotions())
	}
	if m.Rollbacks() != 0 {
		t.Fatalf("genuine promotion rolled back %d times", m.Rollbacks())
	}
	if m.Version() < 2 {
		t.Fatalf("live version %d, want >= 2 after promotion", m.Version())
	}
	if m.Live().Current() != core.Predictor(good) {
		t.Fatal("live model is not the promoted genuine candidate")
	}
	assertAlwaysServed(t, res)
}

func TestManagerRollsBackSneakyCandidate(t *testing.T) {
	app := apps.NewHotelReservation()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	qos := app.QoSMS
	// The sneaky candidate looks perfect on the pinned holdout (marked
	// rows) but is wildly optimistic on live traffic — the class of
	// behavioral regression only probation can catch.
	sneaky := &fakeModel{d: d, qos: qos, eval: func(total float64, marked bool) (float64, float64) {
		if marked {
			lat, pv := truthEval(qos, 12)(total, marked)
			return lat, pv
		}
		return truthEval(qos, 2)(total, marked)
	}}

	m, res := managerScenario(t, upTo(1, func(live core.Predictor, fresh *dataset.Dataset, attempt int) (core.Predictor, error) {
		return sneaky, nil
	}), nil)

	// The served model first: the counters below only show the mechanisms ran.
	if m.Version() != 1 {
		t.Fatalf("rollback should restore version 1, live is v%d", m.Version())
	}
	if m.GateAccepted() != 1 || m.Promotions() != 1 {
		t.Fatalf("sneaky candidate should pass gate+shadow once (accepted=%d promotions=%d)",
			m.GateAccepted(), m.Promotions())
	}
	if m.Rollbacks() != 1 {
		t.Fatalf("probation breach did not roll back (rollbacks=%d, state=%s)",
			m.Rollbacks(), m.state)
	}
	assertAlwaysServed(t, res)
}

func TestManagerShadowDisqualifiesNaNCandidate(t *testing.T) {
	app := apps.NewHotelReservation()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	qos := app.QoSMS
	// Fine on the holdout, NaN on live traffic: the gate passes it, shadow
	// scoring must catch it before promotion.
	flaky := &fakeModel{d: d, qos: qos, eval: func(total float64, marked bool) (float64, float64) {
		if marked {
			return truthEval(qos, 12)(total, marked)
		}
		return math.NaN(), 0.5
	}}

	m, res := managerScenario(t, upTo(1, func(live core.Predictor, fresh *dataset.Dataset, attempt int) (core.Predictor, error) {
		return flaky, nil
	}), nil)

	if m.GateAccepted() != 1 {
		t.Fatalf("flaky candidate should pass the holdout gate (accepted=%d rejected=%d)",
			m.GateAccepted(), m.GateRejected())
	}
	// The served model first: the counters below only show the mechanisms ran.
	if v := m.Live().Version(); v != 1 || m.Rollbacks() != 0 {
		t.Fatalf("the live model is v%d after %d rollbacks; the flaky candidate must never be installed", v, m.Rollbacks())
	}
	if m.ShadowRejected() != 1 || m.Promotions() != 0 {
		t.Fatalf("shadow scoring should disqualify (shadowRejected=%d promotions=%d)",
			m.ShadowRejected(), m.Promotions())
	}
	assertAlwaysServed(t, res)
}

// A retrain that fails is counted on lifecycle.retrain.errors and reaches
// neither the gate nor the live model.
func TestManagerCountsFailedRetrains(t *testing.T) {
	m, res := managerScenario(t, func(core.Predictor, *dataset.Dataset, int) (core.Predictor, error) {
		return nil, errors.New("trainer unavailable")
	}, nil)

	errs := res.Metrics.Snapshot().Counters["lifecycle.retrain.errors"]
	if m.Retrains() < 2 || errs != int64(m.Retrains()) {
		t.Fatalf("%d retrains, %d counted as errors; want at least 2, each one an error", m.Retrains(), errs)
	}
	if m.Live().Version() != 1 || m.Rollbacks() != 0 || m.GateAccepted()+m.GateRejected() != 0 {
		t.Fatalf("a failed retrain reached the gate or the live model (v%d, %d rollbacks, gate %d/%d)",
			m.Live().Version(), m.Rollbacks(), m.GateAccepted(), m.GateRejected())
	}
	assertAlwaysServed(t, res)
}

func TestManagerBlindModeSwapsUnconditionally(t *testing.T) {
	app := apps.NewHotelReservation()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	qos := app.QoSMS
	poisoned := &fakeModel{d: d, qos: qos, eval: func(float64, bool) (float64, float64) { return 1e5, 0.5 }}

	m, res := managerScenario(t, upTo(1, func(live core.Predictor, fresh *dataset.Dataset, attempt int) (core.Predictor, error) {
		return poisoned, nil
	}), func(c *Config) { c.Blind = true })

	if m.Promotions() != 1 || m.GateAccepted() != 0 || m.GateRejected() != 0 {
		t.Fatalf("blind mode should install without gating (promotions=%d gate=%d/%d)",
			m.Promotions(), m.GateAccepted(), m.GateRejected())
	}
	if m.Live().Current() != core.Predictor(poisoned) {
		t.Fatal("blind mode did not install the candidate")
	}
	assertAlwaysServed(t, res)
}

func TestManagerDeterministic(t *testing.T) {
	run := func() string {
		app := apps.NewHotelReservation()
		d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
		qos := app.QoSMS
		good := &fakeModel{d: d, qos: qos, eval: truthEval(qos, 16)}
		m, res := managerScenario(t, func(live core.Predictor, fresh *dataset.Dataset, attempt int) (core.Predictor, error) {
			return good, nil
		}, nil)
		return fmt.Sprintf("retrains=%d acc=%d rej=%d promo=%d roll=%d v=%d meet=%.6f mean=%.6f",
			m.Retrains(), m.GateAccepted(), m.GateRejected(), m.Promotions(), m.Rollbacks(),
			m.Version(), res.Meter.MeetProb(), res.Meter.MeanAlloc())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("lifecycle run not deterministic:\n  %s\n  %s", a, b)
	}
}
