// Package workload generates client load against a simulated cluster,
// standing in for the paper's Locust deployment: open-loop Poisson arrivals
// (the paper's "N users with 1 RPS mean arrival rate"), diurnal and stepped
// load patterns, request-type mixes, and a closed-loop user emulation.
package workload

import (
	"math"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/metrics"
	"sinan/internal/sim"
)

// Pattern yields the target request rate (requests/second) at simulated time t.
type Pattern interface {
	RPS(t float64) float64
}

// Constant is a fixed-rate pattern; the rate equals the emulated user count
// under the paper's 1 RPS-per-user Poisson model.
type Constant float64

// RPS implements Pattern.
func (c Constant) RPS(t float64) float64 { return float64(c) }

// Diurnal is a smooth day-shaped pattern: load starts at Min, peaks at Max
// halfway through Period, and returns to Min (Fig. 12, bottom row).
type Diurnal struct {
	Min, Max float64
	Period   float64
}

// RPS implements Pattern.
func (d Diurnal) RPS(t float64) float64 {
	if d.Period <= 0 {
		return d.Min
	}
	phase := math.Mod(t, d.Period) / d.Period
	return d.Min + (d.Max-d.Min)*0.5*(1-math.Cos(2*math.Pi*phase))
}

// Step is one segment of a stepped pattern: rate RPS until time Until.
type Step struct {
	Until float64
	RPS   float64
}

// Steps is a piecewise-constant pattern; past the last step the final rate
// holds.
type Steps []Step

// RPS implements Pattern.
func (s Steps) RPS(t float64) float64 {
	for _, st := range s {
		if t < st.Until {
			return st.RPS
		}
	}
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].RPS
}

// Generator drives open-loop Poisson arrivals of an application's request
// mix into a cluster, recording end-to-end latencies.
type Generator struct {
	eng     *sim.Engine
	cl      *cluster.Cluster
	app     *apps.App
	rng     *sim.RNG
	pattern Pattern

	Window *metrics.LatencyWindow // per-interval latency sink

	cumWeights []float64
	trees      []*cluster.Stage
	submitted  int64

	// tick fires at the next arrival or, while the pattern yields no load
	// (idle), at the next poll of it. It and recordFn are bound once, so a
	// request costs no closure.
	tick     sim.Timer
	idle     bool
	recordFn func(latSec float64, dropped bool)
}

// NewGenerator creates a generator; call Start to begin injecting load.
func NewGenerator(cl *cluster.Cluster, app *apps.App, rng *sim.RNG, p Pattern) *Generator {
	g := &Generator{
		eng: cl.Eng, cl: cl, app: app, rng: rng, pattern: p,
		Window: &metrics.LatencyWindow{},
	}
	total := app.TotalWeight()
	cum := 0.0
	for _, r := range app.Requests {
		cum += r.Weight / total
		g.cumWeights = append(g.cumWeights, cum)
		g.trees = append(g.trees, r.Tree)
	}
	g.tick, g.recordFn = g.eng.NewTimer(g.onTick), g.record
	return g
}

// Start begins the arrival process.
func (g *Generator) Start() { g.scheduleNext() }

// Submitted returns the number of requests injected so far.
func (g *Generator) Submitted() int64 { return g.submitted }

// FlushWindow computes and resets the current interval's end-to-end
// latency summary — the API gateway's per-interval report. Together with
// Submitted it implements statplane.GatewaySource, making the generator
// the gateway reporter's data source.
func (g *Generator) FlushWindow() metrics.Percentiles { return g.Window.Flush() }

func (g *Generator) scheduleNext() {
	now := g.eng.Now()
	rate := g.pattern.RPS(now)
	if g.idle = rate <= 0; g.idle {
		// Poll again shortly for the pattern to come back.
		g.tick.Set(now + 0.1)
		return
	}
	g.tick.Set(now + g.rng.Exp(1/rate))
}

func (g *Generator) onTick() {
	if !g.idle {
		g.cl.Submit(g.pick(), g.recordFn)
	}
	g.scheduleNext()
}

// pick draws the next request's type from the mix, counts it as submitted
// and returns its call tree.
func (g *Generator) pick() *cluster.Stage {
	u := g.rng.Float64()
	idx := len(g.cumWeights) - 1
	for i, c := range g.cumWeights {
		if u <= c {
			idx = i
			break
		}
	}
	g.submitted++
	return g.trees[idx]
}

// record is the completion callback of every request.
func (g *Generator) record(latSec float64, dropped bool) {
	if dropped {
		g.Window.RecordDrop()
		return
	}
	g.Window.Record(latSec * 1000)
}

// Replay is a pattern that replays a recorded per-second RPS series (e.g.
// from a production trace or a previous run's CSV); past the end of the
// series the last value holds. An empty series yields zero load.
type Replay struct {
	RPSSeries []float64
	Step      float64 // seconds per sample (0 = 1s)
}

// RPS implements Pattern.
func (r Replay) RPS(t float64) float64 {
	if len(r.RPSSeries) == 0 {
		return 0
	}
	step := r.Step
	if step <= 0 {
		step = 1
	}
	idx := int(t / step)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.RPSSeries) {
		idx = len(r.RPSSeries) - 1
	}
	return r.RPSSeries[idx]
}
