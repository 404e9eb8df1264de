package baselines

import (
	"testing"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/runner"
	"sinan/internal/workload"
)

func stateWith(stats []cluster.Stats, alloc []float64) runner.State {
	return runner.State{Stats: stats, Alloc: alloc, QoSMS: 200}
}

func TestAutoScaleOptBands(t *testing.T) {
	a := NewAutoScaleOpt()
	cases := []struct {
		util, want float64
	}{
		{0.80, 1.3}, // [70,100] → +30%
		{0.65, 1.1}, // [60,70) → +10%
		{0.50, 1.0}, // dead zone → hold
		{0.35, 0.9}, // [30,40) → −10%
		{0.10, 0.7}, // [0,30) → −30%
	}
	for i, tc := range cases {
		st := stateWith([]cluster.Stats{{CPUUsage: tc.util * 2, CPULimit: 2}}, []float64{2})
		// Advance past the per-tier cooldown between probes.
		st.Time = float64(i+1) * (a.Cooldown + 1)
		dec := a.Decide(st)
		if got := dec.Alloc[0] / 2; !almost(got, tc.want) {
			t.Fatalf("util %.2f: factor = %v, want %v", tc.util, got, tc.want)
		}
	}
}

func TestAutoScaleConsMoreAggressiveUp(t *testing.T) {
	cons := NewAutoScaleCons()
	// At 40% utilization Cons scales up 10%; Opt holds.
	st := stateWith([]cluster.Stats{{CPUUsage: 0.8, CPULimit: 2}}, []float64{2})
	if got := cons.Decide(st).Alloc[0]; !almost(got, 2.2) {
		t.Fatalf("cons at 40%% = %v, want 2.2", got)
	}
	opt := NewAutoScaleOpt()
	if got := opt.Decide(st).Alloc[0]; !almost(got, 2.0) {
		t.Fatalf("opt at 40%% = %v, want hold", got)
	}
	// Cons reclaims only below 10%.
	st = stateWith([]cluster.Stats{{CPUUsage: 0.3, CPULimit: 2}}, []float64{2})
	if got := cons.Decide(st).Alloc[0]; got != 2.0 {
		t.Fatalf("cons at 15%% should hold, got %v", got)
	}
}

func TestAutoScaleMinStep(t *testing.T) {
	a := NewAutoScaleOpt()
	// 10% of 0.5 cores = 0.05 < MinStep: should still move by 0.1.
	st := stateWith([]cluster.Stats{{CPUUsage: 0.33, CPULimit: 0.5}}, []float64{0.5})
	dec := a.Decide(st)
	if got := dec.Alloc[0]; !almost(got, 0.55) && !almost(got, 0.6) {
		// 65% util → +10% → 0.55, below MinStep so 0.6.
		t.Fatalf("min step not applied: %v", got)
	}
}

func TestPowerChiefBoostsLongestQueue(t *testing.T) {
	p := NewPowerChief()
	stats := []cluster.Stats{
		{NetRx: 100, NetTx: 100, QueueLen: 0},
		{NetRx: 500, NetTx: 300, QueueLen: 50}, // congested
		{NetRx: 100, NetTx: 100, QueueLen: 0},
	}
	dec := p.Decide(stateWith(stats, []float64{2, 2, 2}))
	if dec.Alloc[1] <= 2 {
		t.Fatalf("bottleneck tier not boosted: %v", dec.Alloc)
	}
	if dec.Alloc[0] >= 2 || dec.Alloc[2] >= 2 {
		t.Fatalf("idle tiers not reclaimed: %v", dec.Alloc)
	}
}

func TestPowerChiefNoCongestionReclaims(t *testing.T) {
	p := NewPowerChief()
	stats := []cluster.Stats{
		{NetRx: 10, NetTx: 10},
		{NetRx: 10, NetTx: 10},
	}
	dec := p.Decide(stateWith(stats, []float64{4, 4}))
	for i, a := range dec.Alloc {
		if a >= 4 {
			t.Fatalf("tier %d not reclaimed with empty queues: %v", i, a)
		}
	}
}

func TestAutoScaleConsMeetsQoSHotel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	app := apps.NewHotelReservation()
	res := runner.Run(runner.Config{
		App:      app,
		Policy:   NewAutoScaleCons(),
		Pattern:  workload.Constant(2000),
		Duration: 120,
		Seed:     5,
		Warmup:   20,
	})
	if res.Meter.MeetProb() < 0.98 {
		t.Fatalf("AutoScaleCons meet prob = %v at 2000 RPS, want ≥ 0.98", res.Meter.MeetProb())
	}
}

func TestAutoScaleOptUsesLessCPUThanCons(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	app := apps.NewHotelReservation()
	run := func(p runner.Policy) float64 {
		res := runner.Run(runner.Config{
			App: app, Policy: p, Pattern: workload.Constant(1500),
			Duration: 120, Seed: 6, Warmup: 20,
		})
		return res.Meter.MeanAlloc()
	}
	opt := run(NewAutoScaleOpt())
	cons := run(NewAutoScaleCons())
	if opt >= cons {
		t.Fatalf("AutoScaleOpt mean CPU (%v) should undercut Cons (%v)", opt, cons)
	}
}

func almost(a, b float64) bool {
	d := a - b
	return d < 0.051 && d > -0.051
}

func TestAutoScaleCooldown(t *testing.T) {
	a := NewAutoScaleOpt()
	st := stateWith([]cluster.Stats{{CPUUsage: 1.6, CPULimit: 2}}, []float64{2}) // 80% util
	st.Time = 20
	// Decision.Alloc is the policy's buffer, valid until the next Decide:
	// what is compared across decisions is copied.
	first := append([]float64(nil), a.Decide(st).Alloc...)
	if first[0] <= 2 {
		t.Fatal("first action should fire")
	}
	// Immediately after, the tier is cooling down: no further action.
	st2 := stateWith([]cluster.Stats{{CPUUsage: 2.0, CPULimit: 2.6}}, append([]float64(nil), first...))
	st2.Time = 21
	if got := a.Decide(st2).Alloc[0]; got != first[0] {
		t.Fatalf("action during cooldown: %v → %v", first[0], got)
	}
	// After the cooldown expires, scaling resumes.
	st3 := stateWith([]cluster.Stats{{CPUUsage: 2.0, CPULimit: 2.6}}, append([]float64(nil), first...))
	st3.Time = 21 + a.Cooldown
	if got := a.Decide(st3).Alloc[0]; got <= first[0] {
		t.Fatal("no action after cooldown expiry")
	}
}
