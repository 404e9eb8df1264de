package experiments

import (
	"fmt"

	"sinan/internal/apps"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/harness"
	"sinan/internal/lifecycle"
	"sinan/internal/runner"
	"sinan/internal/workload"
)

// Drift evaluates the guarded model lifecycle under the failure mode the
// paper's Sec. 5.4 motivates: the deployment changes under a trained model
// (here, every tier's per-request CPU cost grows — a platform migration or
// an application update), the stale model starts underestimating latency,
// reclaims too deep, and QoS degrades. Three managers face the identical
// shifted world, all starting from the same stale model, all wired to the
// same retrain pipeline whose FIRST product is poisoned (a corrupted-label
// training run — the supply-chain fault a validation gate exists for):
//
//   - never-retrain: the stale model is ridden to the end; the floor that
//     drift detection + retraining must clear.
//   - blind-swap: drift triggers retraining and every product is installed
//     sight unseen — the poisoned model goes live. Worse, the poison is
//     self-masking: a model that predicts catastrophe everywhere makes the
//     scheduler over-provision, violations vanish, the drift signal goes
//     quiet, and the damage (inflated CPU) persists to the end of the run
//     with nothing left to trigger a corrective retrain.
//   - gated-lifecycle: candidates replay a pinned holdout of
//     shifted-regime data, shadow-score live traffic, and serve under
//     probation with automatic rollback; the poisoned candidate dies at
//     the gate while the live model keeps serving, and the genuine
//     candidate of the next attempt promotes.
//
// Every arm decides every interval — swaps are atomic pointer stores, so
// the table's "pred errors" column (zero everywhere) is the
// zero-unavailability guarantee measured end to end. Rows are
// bit-identical across harness worker counts.
func Drift(l *Lab) []*Table {
	staleM, _ := l.HotelModel()
	shifted := apps.NewHotelReservation(apps.WithWorkScale(1.35))
	// The gate's holdout is pinned from shifted-regime observations — the
	// validation set an operator refreshes as new ground truth arrives.
	hold := l.CollectApp(shifted, l.scale(600, 900), 77)

	genuine := lifecycle.DefaultRetrain(core.RetrainOptions{Epochs: l.scaleInt(4, 8), Seed: 11})
	cfg := lifecycle.Config{
		Gate:       lifecycle.GateConfig{Holdout: hold, MaxRows: 256, RMSEMargin: 0.5, AbsSlackMS: 10},
		Retrain:    poisonedThenGenuine(shifted.QoSMS, genuine),
		MinSamples: 60,
	}

	load := 2200.0
	dur := l.scale(240, 360)
	warm := l.scale(20, 40)
	seed := int64(5151)
	specs := driftSpecs(shifted, func() core.Predictor { return staleM }, cfg, "hotel-shifted", load, dur, warm, seed)

	t := &Table{
		Title: fmt.Sprintf("Drift — model lifecycle under workload shift + poisoned retrain (hotel ×1.35 work, load %.0f)", load),
		Header: []string{"manager", "P(meet QoS)", "mean CPU", "retrains", "gate acc/rej",
			"shadow rej", "promos", "rollbacks", "final ver", "pred errors"},
	}
	for _, run := range l.runSuite("drift-hotel", seed, specs) {
		t.Rows = append(t.Rows, driftRow(run))
		l.logf("drift %s: meet=%.3f mean=%.1f", run.Spec.Name,
			run.Result.Meter.MeetProb(), run.Result.Meter.MeanAlloc())
	}
	t.Notes = append(t.Notes,
		"all arms start from the same stale model and share one retrain pipeline whose first product is label-poisoned (1000× units bug)",
		"the poison is self-masking: blind-installed, it over-provisions, silences the violation-driven drift signal, and is never replaced",
		"utilization guard relaxed (UtilCap 0.99) in every arm so the model, not the feedback net, owns reclaim decisions",
		"zero pred errors across swaps, rejections, and rollbacks — promotion is one atomic pointer store")
	return []*Table{t}
}

// driftRow renders one arm's outcome; lifecycle counters apply only to
// managed arms.
func driftRow(run harness.Outcome) []string {
	res := run.Result
	retr, gates, shrej, promos, rolls, ver := "-", "-", "-", "-", "-", "-"
	if m, ok := run.Policy.(*lifecycle.Manager); ok {
		retr = fmt.Sprintf("%d", m.Retrains())
		gates = fmt.Sprintf("%d/%d", m.GateAccepted(), m.GateRejected())
		shrej = fmt.Sprintf("%d", m.ShadowRejected())
		promos = fmt.Sprintf("%d", m.Promotions())
		rolls = fmt.Sprintf("%d", m.Rollbacks())
		ver = fmt.Sprintf("v%d", m.Version())
	}
	t := tallyOf(res.Trace)
	return append([]string{
		run.Spec.Name,
		f3(res.Meter.MeetProb()), f1(res.Meter.MeanAlloc()),
		retr, gates, shrej, promos, rolls, ver,
	}, t.cells(t.predictErrors)...)
}

// driftSpecs builds the three arms of one drift scenario over a shared
// lifecycle config: a never-retrain floor, a blind-swap variant (identical
// config, gate and shadow skipped), and the full gated lifecycle. stale is
// a factory — each run gets its own predictor value so per-run state can
// never bleed — and any core.Predictor works, so tests substitute cheap
// fakes for trained hybrids.
func driftSpecs(app *apps.App, stale func() core.Predictor, cfg lifecycle.Config, name string, load, dur, warm float64, seed int64) []harness.RunSpec {
	// The utilization guard would silently refuse most of a stale model's
	// too-deep reclaims and mask the damage under study; relax it equally
	// for every arm (the lifecycle, not the feedback net, is on trial).
	sopts := core.SchedulerOptions{UtilCap: 0.99}
	base := harness.RunSpec{
		App: app, Pattern: workload.Constant(load),
		Duration: dur, Warmup: warm, Seed: seed, KeepTrace: true,
	}
	mk := func(n string, pol runner.PolicyFactory) harness.RunSpec {
		sp := base
		sp.Name = name + "/" + n
		sp.Policy = pol
		return sp
	}
	manager := func(blind bool) runner.Policy {
		c := cfg
		c.Blind = blind
		m, err := lifecycle.NewManager(app, stale(), sopts, c)
		if err != nil {
			panic(fmt.Sprintf("experiments: drift manager: %v", err))
		}
		return m
	}
	return []harness.RunSpec{
		mk("never-retrain", func() runner.Policy {
			return core.NewScheduler(app, stale(), sopts)
		}),
		mk("blind-swap", func() runner.Policy { return manager(true) }),
		mk("gated-lifecycle", func() runner.Policy { return manager(false) }),
	}
}

// poisonedThenGenuine wires the poisoned-retrain fault into a retrain
// pipeline: the first drift-triggered retrain trains on label-corrupted
// data, and later attempts delegate to the genuine retrainer.
func poisonedThenGenuine(qosMS float64, genuine lifecycle.RetrainFunc) lifecycle.RetrainFunc {
	return func(live core.Predictor, fresh *dataset.Dataset, attempt int) (core.Predictor, error) {
		if attempt == 1 {
			m, _ := core.TrainHybrid(poisonLabels(fresh), qosMS, core.TrainOptions{Seed: 13, Epochs: 4})
			return m, nil
		}
		return genuine(live, fresh, attempt)
	}
}

// poisonLabels returns a copy of ds with a units regression in the
// collection pipeline: latency targets recorded 1000× too large (ms read
// as µs) and every sample flagged violating. A model trained on it
// predicts catastrophe everywhere — exactly the candidate a gate refuses
// in one holdout replay and a blind swap installs.
func poisonLabels(ds *dataset.Dataset) *dataset.Dataset {
	out := *ds
	out.YLat = make([]float64, len(ds.YLat))
	for i, v := range ds.YLat {
		out.YLat[i] = 1000 * v
	}
	out.YViol = make([]bool, len(ds.YViol))
	for i := range out.YViol {
		out.YViol[i] = true
	}
	return &out
}
