package experiments

import (
	"sinan/internal/apps"
	"sinan/internal/baselines"
	"sinan/internal/collect"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/harness"
	"sinan/internal/runner"
	"sinan/internal/workload"
)

// Fig10 reproduces the data-collection comparison (Fig. 10): hybrid models
// trained on autoscale-driven data (which rarely sees QoS violations) and
// on uniformly random exploration are deployed on Social Network. The
// autoscale-trained model underestimates latency (missed violations and
// tail spikes); the random-trained model overestimates it (prohibits
// reclamation, overprovisions). Bandit-collected data avoids both failure
// modes.
//
// Structure: the two alternative collections fan out on the lab pool, the
// two alternative models train in parallel, and the three deployments run
// as one suite with per-run scheduler instances.
func Fig10(l *Lab) []*Table {
	app := apps.NewSocialNetwork()
	dur := l.collectSeconds("social") * 0.8
	mk := func(name string, pol runner.Policy, seed int64) *dataset.Dataset {
		l.logf("fig10: collecting with %s", name)
		cfg := collect.BanditSession(app, seed)
		cfg.Policy, cfg.Duration = pol, dur
		return collect.Run(cfg)
	}
	altDS := pmap(l, 2, func(i int) *dataset.Dataset {
		if i == 0 {
			return mk("autoscale", baselines.NewAutoScaleOpt(), 61)
		}
		return mk("random", collect.NewRandom(app, 62), 62)
	})
	autoDS, randDS := altDS[0], altDS[1]

	t := &Table{
		Title: "Fig. 10 — deployment behaviour of models trained on different collection schemes (Social Network, 300 users)",
		Header: []string{"collection", "dataset viol%", "pred bias (ms)", "meet QoS",
			"mean CPU", "mispredicted viols"},
		Notes: []string{
			"pred bias = mean (predicted − measured) p99 over the managed run",
			"paper: autoscale data ⇒ underestimation + tail spikes; random data ⇒ overestimation + overprovisioning",
		},
	}

	// Train the two alternative models in parallel; the bandit reference is
	// the lab's cached social model.
	altModels := pmap(l, 2, func(i int) *core.HybridModel {
		ds := autoDS
		if i == 1 {
			ds = randDS
		}
		m, _ := l.trainFn(ds, app.QoSMS, core.TrainOptions{Seed: 6, Epochs: l.epochs()})
		return m
	})
	banditM, _ := l.SocialModel()

	variants := []struct {
		name  string
		ds    *dataset.Dataset
		model *core.HybridModel
	}{
		{"autoscale", autoDS, altModels[0]},
		{"random", randDS, altModels[1]},
		{"bandit (Sinan)", l.SocialDataset(), banditM},
	}
	var specs []harness.RunSpec
	for _, v := range variants {
		specs = append(specs, harness.RunSpec{
			Name: v.name, App: app,
			Policy:  core.SchedulerFactory(app, v.model, core.SchedulerOptions{}),
			Pattern: workload.Constant(300),
			// Identical run configuration for all three deployments, as in
			// the paper: only the training data differs.
			Duration: l.scale(200, 400), Seed: 63, Warmup: 20, KeepTrace: true,
		})
	}
	for i, run := range l.runSuite("fig10", 63, specs) {
		res := run.Result
		var bias float64
		n := 0
		for _, row := range res.Trace {
			if row.PredP99MS != 0 {
				bias += row.PredP99MS - row.P99MS
				n++
			}
		}
		if n > 0 {
			bias /= float64(n)
		}
		tl := tallyOf(res.Trace)
		t.Rows = append(t.Rows, append([]string{
			variants[i].name, pct(variants[i].ds.ViolationRate()), f1(bias),
			pct(res.Meter.MeetProb()), f1(res.Meter.MeanAlloc()),
		}, tl.cells(tl.mispredictions)...))
		l.logf("fig10: %s deployed (bias %.1f, meet %.3f)", variants[i].name, bias, res.Meter.MeetProb())
	}
	return []*Table{t}
}
