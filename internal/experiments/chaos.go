package experiments

import (
	"fmt"

	"sinan/internal/apps"
	"sinan/internal/baselines"
	"sinan/internal/core"
	"sinan/internal/faults"
	"sinan/internal/harness"
	"sinan/internal/runner"
	"sinan/internal/workload"
)

// Chaos evaluates robustness under failure: Hotel and Social run a
// mid-level load while the standard fault schedule (faults.Standard) takes
// the predictor down, slows it past its deadline, silences a node agent,
// crashes half a tier's replicas, and flips RPC errors on the wire. Three
// managers face the same schedule:
//
//   - Sinan with the degraded-mode fallback of this repository: predictor
//     errors switch the scheduler to conservative hold/upscale until a
//     probe succeeds;
//   - Sinan as deployed without a fallback ("crashing"): the manager dies
//     on the first predictor error, leaving the last allocation in force —
//     what a panicking client would have done;
//   - AutoScaleCons, which never consults a model and bounds what pure
//     feedback control achieves under the same cluster faults.
//
// A fifth arm runs Sinan with a healthy predictor under a lossy stats
// plane (faults.Lossy): node-agent reports are dropped and duplicated in
// flight for most of the run, exercising the aggregator's sequence dedupe
// and the scheduler's hold-last-value imputation rather than the
// predictor fallback. A no-fault Sinan run anchors the comparison. The
// table reports QoS
// attainment, mean CPU, and the degraded/error counters, and every row is
// bit-identical across harness worker counts: each run owns its injector,
// and all fault state advances on the run's private sim clock.
func Chaos(l *Lab) []*Table {
	hotelM, _ := l.HotelModel()
	socialM, _ := l.SocialModel()

	var tables []*Table
	for _, env := range []struct {
		name  string
		app   *apps.App
		model *core.HybridModel
		load  float64
	}{
		{"hotel", apps.NewHotelReservation(), hotelM, 2500},
		{"social", apps.NewSocialNetwork(), socialM, 250},
	} {
		dur := l.scale(180, 300)
		warm := l.scale(30, 60)
		seed := int64(4242)
		specs := chaosSpecs(env.app, env.model, env.name, env.load, dur, warm, seed)
		t := &Table{
			Title:  "Chaos — " + env.name + fmt.Sprintf(": QoS under faults (load %.0f)", env.load),
			Header: []string{"manager", "P(meet QoS)", "mean CPU", "degraded ivals", "pred errors", "recoveries"},
		}
		for _, run := range l.runSuite("chaos-"+env.name, seed, specs) {
			row := chaosRow(run)
			t.Rows = append(t.Rows, row)
			l.logf("chaos %s: %s meet=%s mean=%s degraded=%s", env.name, row[0], row[1], row[2], row[3])
		}
		t.Notes = append(t.Notes,
			"fault schedule: predictor outage, slowdown past deadline, metric dropout, half-tier crash, RPC blips (faults.Standard)",
			"lossy-stats arm: healthy predictor, 25% report drop/duplicate on the stats plane (faults.Lossy)")
		tables = append(tables, t)
	}
	return tables
}

// chaosRow renders one manager's outcome; the scheduler's tallies, folded
// from the trace, apply only to Sinan arms.
func chaosRow(run harness.Outcome) []string {
	res, t := run.Result, tallyOf(run.Result.Trace)
	return append([]string{run.Spec.Name, f3(res.Meter.MeetProb()), f1(res.Meter.MeanAlloc()),
		fmt.Sprintf("%d", t.degraded)}, t.cells(t.predictErrors, t.recoveries)...)
}

// chaosSpecs builds the five managed runs of one chaos scenario. model is
// any core.Predictor so tests can substitute a cheap fake for the trained
// hybrid. Every faulted spec gets its own injector over the same plan —
// injectors are single-run state — and pinned seeds keep the workload
// identical across managers.
func chaosSpecs(app *apps.App, model core.Predictor, name string, load, dur, warm float64, seed int64) []harness.RunSpec {
	plan := faults.Standard(seed, dur, len(app.Tiers))
	base := harness.RunSpec{
		App: app, Pattern: workload.Constant(load),
		Duration: dur, Warmup: warm, Seed: seed, KeepTrace: true,
	}
	mk := func(n string, pol runner.PolicyFactory, inj *faults.Injector) harness.RunSpec {
		sp := base
		sp.Name = name + "/" + n
		sp.Policy = pol
		if inj != nil {
			sp.Faults = inj
		}
		return sp
	}

	fallbackInj := faults.New(plan)
	crashInj := faults.New(plan)
	consInj := faults.New(plan)
	// The lossy-stats arm keeps the predictor healthy and degrades only
	// report delivery: drops and duplicates on the telemetry wire.
	lossyInj := faults.New(faults.Lossy(seed, dur, 0.25))
	return []harness.RunSpec{
		mk("sinan-fallback", func() runner.Policy {
			return core.NewScheduler(app, fallbackInj.Predictor(model), core.SchedulerOptions{})
		}, fallbackInj),
		mk("sinan-crashing", func() runner.Policy {
			return &latchingPolicy{s: core.NewScheduler(app, crashInj.Predictor(model), core.SchedulerOptions{})}
		}, crashInj),
		mk("autoscale-cons", func() runner.Policy {
			return baselines.NewAutoScaleCons()
		}, consInj),
		mk("sinan-lossy-stats", func() runner.Policy {
			return core.NewScheduler(app, model, core.SchedulerOptions{})
		}, lossyInj),
		mk("sinan-nofault", func() runner.Policy {
			return core.NewScheduler(app, model, core.SchedulerOptions{})
		}, nil),
	}
}

// tally is what the Sinan scheduler did over one run, folded from the
// per-interval record each TraceRow copies from its runner.Decision.
type tally struct {
	sinan                                  bool // some row was decided by the scheduler
	mispredictions, predictErrors, sheds   int
	degraded, recoveries, brownout, scored int
}

func tallyOf(trace []runner.TraceRow) (t tally) {
	for i, row := range trace {
		t.sinan = t.sinan || row.Branch != runner.BranchNone
		switch row.Branch {
		case runner.BranchSurprised:
			t.mispredictions++
		case runner.BranchPredictShed:
			t.sheds++
			fallthrough
		case runner.BranchPredictError:
			t.predictErrors++
		}
		if row.Brownout > 0 && row.Scored > 0 {
			t.brownout++
		}
		t.scored += int(row.Scored)
		// Degraded is cleared only where a successful query ends degraded mode.
		if row.Degraded {
			t.degraded++
		} else if i > 0 && trace[i-1].Degraded {
			t.recoveries++
		}
	}
	return t
}

// cells renders counts of t for a table row, each "-" when no interval of
// the run was decided by the scheduler.
func (t tally) cells(counts ...int) []string {
	out := make([]string, len(counts))
	for i, n := range counts {
		out[i] = "-"
		if t.sinan {
			out[i] = fmt.Sprintf("%d", n)
		}
	}
	return out
}

// latchingPolicy emulates the pre-fallback failure mode: the first
// predictor error "kills" the resource manager, and from then on the last
// cgroup limits simply stay in force (a dead manager writes nothing). This
// is the honest baseline for what a panicking RPC client cost the system.
type latchingPolicy struct {
	s    *core.Scheduler
	dead bool
}

func (p *latchingPolicy) Name() string { return "Sinan-crashing" }

func (p *latchingPolicy) Decide(st runner.State) runner.Decision {
	if p.dead {
		return runner.Decision{Alloc: st.Alloc}
	}
	dec := p.s.Decide(st)
	switch dec.Branch {
	case runner.BranchPredictError, runner.BranchPredictShed: // the record of the fatal query stays
		p.dead = true
		return runner.Decision{Alloc: st.Alloc, Branch: dec.Branch, Scored: dec.Scored}
	}
	return dec
}
