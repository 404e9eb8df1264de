package experiments

import (
	"fmt"

	"sinan/internal/apps"
	"sinan/internal/baselines"
	"sinan/internal/core"
	"sinan/internal/harness"
	"sinan/internal/runner"
	"sinan/internal/workload"
)

// Fig11 reproduces the headline evaluation (Fig. 11): for each application
// and each load level, the mean and max aggregate CPU allocation and the
// probability of meeting QoS under Sinan, AutoScaleOpt, AutoScaleCons, and
// PowerChief. The expected shape: only Sinan and AutoScaleCons meet QoS at
// every load; Sinan uses substantially less CPU than AutoScaleCons;
// AutoScaleOpt and PowerChief degrade at high load.
//
// The whole grid — every (app, load, policy) combination — is one harness
// suite, executed in parallel with per-run policy instances and aggregated
// in spec order, so rows land exactly where the serial version put them.
func Fig11(l *Lab) []*Table {
	hotelM, _ := l.HotelModel()
	socialM, _ := l.SocialModel()

	var tables []*Table
	for _, env := range []struct {
		name  string
		app   *apps.App
		model *core.HybridModel
		loads []float64
	}{
		{"hotel", apps.NewHotelReservation(), hotelM, l.HotelLoads()},
		{"social", apps.NewSocialNetwork(), socialM, l.SocialLoads()},
	} {
		t := &Table{
			Title:  "Fig. 11 — " + env.name + ": CPU allocation and QoS across loads",
			Header: []string{"users", "policy", "mean CPU", "max CPU", "P(meet QoS)"},
		}
		dur := l.scale(180, 300)
		warm := l.scale(60, 120)
		var specs []harness.RunSpec
		var loads []float64
		for _, load := range env.loads {
			for _, mk := range []runner.PolicyFactory{
				core.SchedulerFactory(env.app, env.model, core.SchedulerOptions{}),
				func() runner.Policy { return baselines.NewAutoScaleOpt() },
				func() runner.Policy { return baselines.NewAutoScaleCons() },
				func() runner.Policy { return baselines.NewPowerChief() },
			} {
				specs = append(specs, harness.RunSpec{
					Name: fmt.Sprintf("%s-%.0f", env.name, load),
					App:  env.app, Policy: mk, Pattern: workload.Constant(load),
					Duration: dur, Seed: int64(1000 + load), Warmup: warm,
				})
				loads = append(loads, load)
			}
		}
		for i, run := range l.runSuite("fig11-"+env.name, 1000, specs) {
			res := run.Result
			t.Rows = append(t.Rows, []string{
				f0(loads[i]), run.Policy.Name(),
				f1(res.Meter.MeanAlloc()), f1(res.Meter.MaxAlloc()),
				f3(res.Meter.MeetProb()),
			})
			l.logf("fig11 %s: load=%.0f %s meet=%.3f mean=%.1f",
				env.name, loads[i], run.Policy.Name(), res.Meter.MeetProb(), res.Meter.MeanAlloc())
		}
		tables = append(tables, t)
	}
	addSavingsNotes(tables)
	return tables
}

// addSavingsNotes appends the Sinan-vs-AutoScaleCons savings summary the
// paper reports (25.9% avg / 46.0% max on Hotel; 59.0% avg / 68.1% max on
// Social Network): the mean and the largest of 1 − Sinan/AutoScaleCons over
// every load of the table, whether or not either policy met QoS there, each
// policy's mean CPU read back from its formatted cell.
func addSavingsNotes(tables []*Table) {
	for _, t := range tables {
		perLoad := map[string]map[string]float64{}
		var loads []string // in the table's row order, so the sum's order is fixed
		for _, row := range t.Rows {
			load, pol, mean := row[0], row[1], row[2]
			if perLoad[load] == nil {
				perLoad[load] = map[string]float64{}
				loads = append(loads, load)
			}
			var v float64
			if _, err := sscanFloat(mean, &v); err == nil {
				perLoad[load][pol] = v
			}
		}
		var sum, maxSave float64
		n := 0
		for _, load := range loads {
			pols := perLoad[load]
			s, okS := pols["Sinan"]
			c, okC := pols["AutoScaleCons"]
			if okS && okC && c > 0 {
				save := 1 - s/c
				sum += save
				if save > maxSave {
					maxSave = save
				}
				n++
			}
		}
		if n > 0 {
			t.Notes = append(t.Notes,
				"Sinan CPU saving vs AutoScaleCons: avg "+pct(sum/float64(n))+", max "+pct(maxSave))
		}
	}
}

func sscanFloat(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
