package telemetry

import "math"

// This file is the single home of percentile math. Two consumers share it:
//
//   - internal/metrics.LatencyWindow holds every sample of a one-second
//     decision interval (small windows) and computes exact nearest-rank
//     percentiles over the sorted slice — ExactQuantile.
//   - telemetry.Histogram streams unbounded observations through fixed
//     log-scale buckets and computes approximate quantiles from the bucket
//     counts — bucketQuantile (see telemetry.go), whose error is bounded by
//     the bucket geometry.
//
// TestQuantileAgreement pins the two implementations against each other
// within the bucket error bound, so they cannot drift apart again.

// ExactQuantile returns the q-quantile (q in [0,1]) of sorted data using
// the nearest-rank method: the smallest element whose cumulative frequency
// reaches q. The input must be sorted ascending; an empty slice yields 0.
// This is the exact-sort half of the repository's percentile math; the
// streaming half is Histogram.Quantile.
func ExactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
