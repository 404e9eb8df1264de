package workload

import (
	"testing"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/metrics"
	"sinan/internal/sim"
)

// measureP99 runs the app at the given constant load for dur seconds with
// the current allocation and returns the overall p99 (ms) of the second half
// of the run (warm-up excluded).
func measureP99(t *testing.T, app *apps.App, rps float64, dur float64, scale float64) float64 {
	t.Helper()
	eng := &sim.Engine{}
	cl := cluster.New(eng, sim.NewRNG(11), app.Tiers)
	if scale != 1 {
		alloc := cl.AllocInto(nil)
		for i := range alloc {
			alloc[i] *= scale
		}
		cl.SetAlloc(alloc)
	}
	g := NewGenerator(cl, app, sim.NewRNG(12), Constant(rps))
	g.Start()
	eng.Run(dur / 2)
	g.Window.Flush() // discard warm-up
	eng.Run(dur)
	var all []float64
	p := g.Window.Flush()
	_ = all
	return p.P99()
}

// The capacity tests pin the simulator calibration: the QoS boundary must
// fall inside the load ranges the paper sweeps (Fig. 11), so that resource
// management is neither trivial (always meets) nor hopeless (never meets).

func TestHotelCapacityAtMaxAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity calibration is slow")
	}
	app := apps.NewHotelReservation()
	p99 := measureP99(t, app, 3700, 30, 1)
	if p99 > app.QoSMS {
		t.Fatalf("hotel at max alloc, 3700 RPS: p99 = %.1fms > QoS %.0fms", p99, app.QoSMS)
	}
}

func TestHotelOverloadsWhenStarved(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity calibration is slow")
	}
	app := apps.NewHotelReservation()
	p99 := measureP99(t, app, 3700, 30, 0.15)
	if p99 <= app.QoSMS {
		t.Fatalf("hotel at 15%% alloc, 3700 RPS should violate QoS: p99 = %.1fms", p99)
	}
}

func TestSocialCapacityAtMaxAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity calibration is slow")
	}
	app := apps.NewSocialNetwork()
	p99 := measureP99(t, app, 450, 30, 1)
	if p99 > app.QoSMS {
		t.Fatalf("social at max alloc, 450 RPS: p99 = %.1fms > QoS %.0fms", p99, app.QoSMS)
	}
}

func TestSocialOverloadsWhenStarved(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity calibration is slow")
	}
	app := apps.NewSocialNetwork()
	p99 := measureP99(t, app, 450, 30, 0.1)
	if p99 <= app.QoSMS {
		t.Fatalf("social at 10%% alloc, 450 RPS should violate QoS: p99 = %.1fms", p99)
	}
}

func TestCapacityCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration curves are slow")
	}
	hotel := apps.NewHotelReservation()
	for _, rps := range []float64{1000, 2200, 3700} {
		for _, scale := range []float64{1.0, 0.5, 0.25} {
			p99 := measureP99(t, hotel, rps, 20, scale)
			t.Logf("hotel rps=%v scale=%.2f p99=%.1fms", rps, scale, p99)
		}
	}
	social := apps.NewSocialNetwork()
	for _, rps := range []float64{50, 250, 450} {
		for _, scale := range []float64{1.0, 0.5, 0.25} {
			p99 := measureP99(t, social, rps, 20, scale)
			t.Logf("social rps=%v scale=%.2f p99=%.1fms", rps, scale, p99)
		}
	}
	_ = metrics.Percentile
}
