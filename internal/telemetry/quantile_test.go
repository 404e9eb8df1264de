package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// quantileErrorBound is the worst-case multiplicative error of a bucketed
// quantile relative to the exact one: bucket midpoints are within a
// half-bucket ratio of any value in the bucket.
var quantileErrorBound = math.Exp2(1.0 / (2 * histSub))

// TestQuantileAgreement pins the repository's two percentile
// implementations against each other: the exact nearest-rank quantile over
// sorted samples (what metrics.LatencyWindow.Flush computes per decision
// interval) and the bucketed streaming quantile of Histogram. For every
// distribution and quantile tried, the bucketed estimate must sit within
// the geometric error bound implied by the bucket width.
func TestQuantileAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distributions := map[string]func() float64{
		// Uniform latencies across three decades.
		"uniform": func() float64 { return 0.5 + 999.5*rng.Float64() },
		// Log-normal: the shape real tail latencies take.
		"lognormal": func() float64 { return math.Exp(3 + 1.2*rng.NormFloat64()) },
		// Bimodal: fast hits plus a slow mode, the worst case for coarse
		// histograms because quantiles sit at a cliff.
		"bimodal": func() float64 {
			if rng.Float64() < 0.9 {
				return 1 + rng.Float64()
			}
			return 100 + 10*rng.Float64()
		},
	}
	quantiles := []float64{0.5, 0.9, 0.95, 0.99, 0.999}
	bound := quantileErrorBound

	for name, draw := range distributions {
		var h Histogram
		samples := make([]float64, 20000)
		for i := range samples {
			v := draw()
			samples[i] = v
			h.Observe(v)
		}
		sort.Float64s(samples)
		for _, q := range quantiles {
			exact := ExactQuantile(samples, q)
			approx := h.Quantile(q)
			// The bucketed value represents the whole bucket holding the exact
			// quantile: allow one full bucket ratio (midpoint bound is half a
			// bucket, doubled here because nearest-rank can land on either edge
			// of a boundary-straddling sample).
			lo, hi := exact/(bound*bound), exact*bound*bound
			if approx < lo || approx > hi {
				t.Errorf("%s q%.3f: bucketed %.4g outside [%.4g, %.4g] (exact %.4g)",
					name, q, approx, lo, hi, exact)
			}
		}
	}
}

// TestExactQuantileMatchesSortedRank nails ExactQuantile's nearest-rank
// semantics to hand-computed values, since metrics.Percentiles (the model's
// latency-history input) is defined in terms of it.
func TestExactQuantileMatchesSortedRank(t *testing.T) {
	data := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.05, 10}, {0.10, 10}, {0.11, 20}, {0.5, 50},
		{0.95, 100}, {0.99, 100}, {1, 100},
	}
	for _, tc := range cases {
		if got := ExactQuantile(data, tc.q); got != tc.want {
			t.Errorf("q=%.2f: got %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := ExactQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty: got %g, want 0", got)
	}
}
