// Package baselines implements the resource managers Sinan is evaluated
// against (Sec. 5.3): utilization-driven step autoscaling in the two
// configurations the paper uses, and PowerChief-style queueing-analysis
// boosting for multi-stage applications.
package baselines

import (
	"sinan/internal/runner"
)

// Band is one utilization band of a step-scaling policy: if a tier's CPU
// utilization falls in [Lo, Hi), its allocation is multiplied by Factor.
type Band struct {
	Lo, Hi, Factor float64
}

// AutoScale is per-tier utilization step scaling, the industry-standard
// policy (AWS step scaling [4] in the paper).
type AutoScale struct {
	Label string
	Bands []Band
	// MinStep is the minimum absolute change in cores when a band fires,
	// so low allocations can still move at the 0.1-core granularity.
	MinStep float64
	// Cooldown is the per-tier delay (seconds) between scaling actions,
	// mirroring AWS step-scaling cooldowns.
	Cooldown float64

	lastAction []float64
	alloc      []float64 // Decision.Alloc, reused: valid until the next Decide
}

// NewAutoScaleOpt returns the paper's AutoScaleOpt configuration: scale up
// 10% at [60,70)% utilization and 30% at [70,100]%; scale down 10% at
// [30,40)% and 30% at [0,30)%.
func NewAutoScaleOpt() *AutoScale {
	return &AutoScale{
		Label: "AutoScaleOpt",
		Bands: []Band{
			{Lo: 0.70, Hi: 1.01, Factor: 1.30},
			{Lo: 0.60, Hi: 0.70, Factor: 1.10},
			{Lo: 0.30, Hi: 0.40, Factor: 0.90},
			{Lo: 0.00, Hi: 0.30, Factor: 0.70},
		},
		MinStep:  0.1,
		Cooldown: 15,
	}
}

// NewAutoScaleCons returns the paper's conservative AutoScaleCons
// configuration, tuned for QoS: scale up 10% at [30,50)% and 30% at
// [50,100]%; scale down 10% only below 10% utilization.
func NewAutoScaleCons() *AutoScale {
	return &AutoScale{
		Label: "AutoScaleCons",
		Bands: []Band{
			{Lo: 0.50, Hi: 1.01, Factor: 1.30},
			{Lo: 0.30, Hi: 0.50, Factor: 1.10},
			{Lo: 0.00, Hi: 0.10, Factor: 0.90},
		},
		MinStep:  0.1,
		Cooldown: 15,
	}
}

// Name implements runner.Policy.
func (a *AutoScale) Name() string { return a.Label }

// Decide implements runner.Policy.
func (a *AutoScale) Decide(s runner.State) runner.Decision {
	if a.lastAction == nil {
		a.lastAction = make([]float64, len(s.Stats))
		for i := range a.lastAction {
			a.lastAction[i] = -1e18
		}
	}
	// Each tier's step reads only its own entry, so the copy may be taken
	// onto the previous decision's buffer even when it is passed back as
	// s.Alloc.
	alloc := append(a.alloc[:0], s.Alloc...)
	a.alloc = alloc
	for i, st := range s.Stats {
		if s.StatsOK != nil && i < len(s.StatsOK) && !s.StatsOK[i] {
			// Node agent silent this interval: a zeroed stats row reads as 0%
			// utilization and would trigger a bogus scale-down, so hold.
			continue
		}
		if s.Time-a.lastAction[i] < a.Cooldown {
			continue
		}
		util := 0.0
		if st.CPULimit > 0 {
			util = st.CPUUsage / st.CPULimit
		}
		for _, b := range a.Bands {
			if util >= b.Lo && util < b.Hi {
				next := alloc[i] * b.Factor
				if diff := next - alloc[i]; diff > 0 && diff < a.MinStep {
					next = alloc[i] + a.MinStep
				} else if diff < 0 && -diff < a.MinStep {
					next = alloc[i] - a.MinStep
				}
				alloc[i] = next
				a.lastAction[i] = s.Time
				break
			}
		}
	}
	return runner.Decision{Alloc: alloc}
}
