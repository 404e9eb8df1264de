package experiments

import (
	"fmt"

	"sinan/internal/apps"
	"sinan/internal/core"
	"sinan/internal/harness"
	"sinan/internal/metrics"
	"sinan/internal/workload"
)

// Fig14 reproduces the GCE scalability study (Fig. 14 and Fig. 15): Social
// Network deployed on the GCE platform profile, managed by Sinan with the
// locally-trained model fine-tuned on a small amount of GCE data (the
// transfer-learning path of Sec. 5.4/5.5), under the four request mixes
// W0–W3. Fig. 14 reports the average CPU allocation per mix across loads;
// Fig. 15 the p99 latency distribution per mix — all mixes must meet QoS,
// with W1 (most ComposePost traffic) the most expensive.
func Fig14(l *Lab) []*Table {
	gceApp := apps.NewSocialNetwork(apps.WithPlatform(apps.GCE))
	base, _ := l.SocialModel()

	// Transfer learning: fine-tune the local model with GCE samples.
	l.logf("fig14: collecting GCE fine-tuning data")
	gceDS := l.CollectApp(gceApp, l.scale(800, 2000), 91)
	gceModel := base.Retrain(gceDS, core.RetrainOptions{Epochs: l.scaleInt(8, 15), Seed: 91})

	loads := l.SocialLoads()
	cpu := &Table{
		Title:  "Fig. 14 — mean CPU allocation per request mix (Social Network on GCE, Sinan)",
		Header: append([]string{"users"}, mixNames()...),
		Notes: []string{
			"mix ratios ComposePost:ReadHomeTimeline:ReadUserTimeline — W0=5:80:15 (training mix), W1=10:80:10, W2=1:90:9, W3=5:70:25",
			"expected: W1 needs the most CPU (most ComposePost requests trigger the ML filter tiers)",
		},
	}
	lat := &Table{
		Title:  "Fig. 15 — p99 latency distribution per mix (Social Network on GCE, Sinan)",
		Header: []string{"mix", "p50 of p99s", "p90", "p99", "max", "P(meet QoS)"},
		Notes:  []string{"QoS 500ms: every mix must meet it (paper: Sinan always meets QoS on GCE)"},
	}

	// One suite covers the whole (mix, load) grid; each run's scheduler
	// clones the fine-tuned model, so the grid parallelises cleanly.
	type cell struct {
		mix  string
		load float64
	}
	var specs []harness.RunSpec
	var cells []cell
	for _, mx := range apps.Mixes {
		app := gceApp.WithMix(mx.Mix)
		for _, load := range loads {
			specs = append(specs, harness.RunSpec{
				Name: fmt.Sprintf("%s-%.0f", mx.Name, load),
				App:  app, Policy: core.SchedulerFactory(app, gceModel, core.SchedulerOptions{}),
				Pattern:  workload.Constant(load),
				Duration: l.scale(150, 240), Seed: int64(9000 + load), Warmup: 50, KeepTrace: true,
			})
			cells = append(cells, cell{mx.Name, load})
		}
	}

	perMixP99s := map[string][]float64{}
	perMixMeet := map[string][]float64{}
	rows := map[float64][]string{}
	for _, load := range loads {
		rows[load] = []string{f0(load)}
	}
	for i, run := range l.runSuite("fig14", 9000, specs) {
		res := run.Result
		c := cells[i]
		rows[c.load] = append(rows[c.load], f1(res.Meter.MeanAlloc()))
		for _, r := range res.Trace {
			if r.Time > 50 {
				perMixP99s[c.mix] = append(perMixP99s[c.mix], r.P99MS)
			}
		}
		perMixMeet[c.mix] = append(perMixMeet[c.mix], res.Meter.MeetProb())
		l.logf("fig14 %s load=%.0f mean=%.1f meet=%.3f",
			c.mix, c.load, res.Meter.MeanAlloc(), res.Meter.MeetProb())
	}
	for _, load := range loads {
		cpu.Rows = append(cpu.Rows, rows[load])
	}
	for _, mx := range apps.Mixes {
		p99s := perMixP99s[mx.Name]
		meet := metrics.Mean(perMixMeet[mx.Name])
		lat.Rows = append(lat.Rows, []string{
			mx.Name,
			f1(metrics.Percentile(p99s, 50)),
			f1(metrics.Percentile(p99s, 90)),
			f1(metrics.Percentile(p99s, 99)),
			f1(maxOf(p99s)),
			f3(meet),
		})
	}
	return []*Table{cpu, lat}
}

func mixNames() []string {
	out := make([]string, len(apps.Mixes))
	for i, m := range apps.Mixes {
		out[i] = fmt.Sprintf("%s mean CPU", m.Name)
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
