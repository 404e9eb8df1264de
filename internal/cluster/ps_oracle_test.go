package cluster

import (
	"fmt"
	"math"
	"testing"

	"sinan/internal/sim"
)

// The tier against queueing theory. One tier with L <= 1 cores serves its n
// jobs at min(1, L/n) = L/n each, which is the M/G/1 processor-sharing queue
// with a server of speed L: under Poisson arrivals of rate λ and demands of
// mean S the mean sojourn is (S/L)/(1 − ρ), ρ = λS/L, whatever the demand
// distribution (the PS mean is insensitive to it). Every other check of
// rate/advance/reschedule descends from a recorded digest; this one descends
// from a formula.
//
// Bound: the sojourns of the last 98 % of the requests are cut, in completion
// order, into 30 batches; the batch means are near-independent, so their
// mean m and standard error se give a Student-t interval with 29 degrees of
// freedom. The test accepts |m − theory| <= 4·se (two-sided p ≈ 4e-4 per
// case, were the seed random; it is fixed, so the outcome is reproducible)
// and, so that the interval is worth passing, se <= 4 % of theory — a rate
// wrong by a tenth fails. Little's law is checked on the same run: the time
// average of Active() equals the completion rate times the mean sojourn to
// within the few requests still in flight when the run ends.
func TestTierMatchesMG1PS(t *testing.T) {
	const (
		meanWork = 0.002 // S, core-seconds
		requests = 200000
		batches  = 30
	)
	seed := int64(10)
	for _, limit := range []float64{0.5, 1.0} {
		for _, rho := range []float64{0.3, 0.6, 0.8} {
			var means [2]float64
			for i, cv := range []float64{0.5, 1.5} {
				name := fmt.Sprintf("L=%.1f rho=%.1f cv=%.1f", limit, rho, cv)
				lambda := rho * limit / meanWork
				seed++ // a run of its own per case, not twelve scalings of one
				run := runPoissonTier(seed, limit, cv, meanWork, lambda, requests)

				theory := meanWork / limit / (1 - rho)
				m, se := batchMeans(run.sojourns[requests/50:], batches)
				if math.Abs(m-theory) > 4*se || se > 0.04*theory {
					t.Errorf("%s: mean sojourn %.6f ± %.6f s (standard error), M/G/1-PS says %.6f", name, m, se, theory)
				}
				means[i] = m

				all, _ := batchMeans(run.sojourns, 1)
				little := float64(len(run.sojourns)) / run.elapsed * all
				if avg := run.activeArea / run.elapsed; math.Abs(avg-little) > 1e-3*little {
					t.Errorf("%s: time-averaged Active() %.5f, Little's law says %.5f", name, avg, little)
				}
			}
			// Insensitivity, stated directly: tripling the demand's spread
			// leaves the mean where it was, to the two intervals' width.
			if math.Abs(means[0]-means[1]) > 0.1*means[0] {
				t.Errorf("L=%.1f rho=%.1f: mean sojourn %.6f s at cv 0.5 but %.6f s at cv 1.5", limit, rho, means[0], means[1])
			}
		}
	}
}

type poissonRun struct {
	sojourns   []float64 // in completion order, seconds
	activeArea float64   // ∫ Active() dt
	elapsed    float64
}

// runPoissonTier drives one tier of the given CPU limit with Poisson arrivals
// of single-stage requests until n of them have completed.
func runPoissonTier(seed int64, limit, cv, meanWork, lambda float64, n int) poissonRun {
	eng := &sim.Engine{}
	rng := sim.NewRNG(seed)
	c := New(eng, rng.Fork(), []TierConfig{{
		Name: "t", InitCPU: limit, MinCPU: 0.1, WorkCV: cv, ConnsPerReplica: 1 << 20,
	}})
	tier, tree := c.Tier("t"), Seq("t", meanWork)
	arrivals := rng.Fork()

	run := poissonRun{sojourns: make([]float64, 0, n)}
	lastChange, active := 0.0, 0
	account := func() { // Active() held its last value since the last change
		run.activeArea += float64(active) * (eng.Now() - lastChange)
		lastChange, active = eng.Now(), tier.Active()
	}
	done := func(latency float64, dropped bool) {
		if dropped {
			panic("ps oracle: request dropped")
		}
		run.sojourns = append(run.sojourns, latency)
		account()
		if len(run.sojourns) == n {
			eng.Halt()
		}
	}
	var next sim.Timer
	next = eng.NewTimer(func() {
		c.Submit(tree, done)
		account()
		next.Set(eng.Now() + arrivals.Exp(1/lambda))
	})
	next.Set(0)
	eng.Run(math.Inf(1))
	run.elapsed = eng.Now()
	return run
}

// batchMeans returns the mean of xs and the standard error of that mean
// estimated from the means of k equal consecutive batches.
func batchMeans(xs []float64, k int) (mean, se float64) {
	size := len(xs) / k
	sum, sumSq := 0.0, 0.0
	for b := 0; b < k; b++ {
		s := 0.0
		for _, x := range xs[b*size : (b+1)*size] {
			s += x
		}
		s /= float64(size)
		sum += s
		sumSq += s * s
	}
	mean = sum / float64(k)
	if k > 1 {
		se = math.Sqrt((sumSq/float64(k) - mean*mean) / float64(k-1))
	}
	return mean, se
}
