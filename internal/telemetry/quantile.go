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
	return sorted[ExactRank(len(sorted), q)]
}

// ExactRank returns the index ExactQuantile reads for the q-quantile of n > 0
// sorted values: ceil(q·n) − 1, clamped to the slice. It is non-decreasing in
// q, so a caller that needs only quantiles from q up may sort only from this
// index on.
func ExactRank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}
