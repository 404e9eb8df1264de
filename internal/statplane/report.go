// Package statplane is Sinan's telemetry plane (Sec. 4.1): per-node
// agents sample their tiers' resource statistics every decision interval
// and report them to the centralized scheduler, while an API-gateway
// reporter contributes the arrival rate and end-to-end latency summary.
// The package separates WHAT flows (sequence-numbered reports)
// from HOW it flows (the in-process Pipeline of simulated runs, whose one
// ReportGate seam lets fault injection lose or duplicate reports, or the
// Hub of distributed ones, whose agents report over TCP in package wire's
// frames) from HOW the scheduler's per-interval
// snapshot is assembled (an Aggregator that dedupes by sequence, flags
// late or missing reports as StatsOK=false for the scheduler's
// hold-last-value imputation, and tracks per-agent liveness).
package statplane

import (
	"sinan/internal/cluster"
	"sinan/internal/metrics"
)

// WireVersion is the wire's schema version: a Hub refuses the Hello of an
// agent of another version (1 was the gob wire) instead of guessing.
const WireVersion = 2

// TierStats is one tier's interval statistics inside a report, tagged with
// the tier's global index so agents may own arbitrary tier subsets.
type TierStats struct {
	Tier  int
	Stats cluster.Stats
}

// Report is one node agent's per-interval statistics message. Seq increases
// by one per emission and never repeats for an agent, which is what lets
// the aggregator drop duplicated or reordered deliveries; Interval names
// the decision interval the sample covers, so a report that arrives after
// its interval's deadline is recognisably late rather than silently
// misfiled into the wrong snapshot.
type Report struct {
	Agent    string
	Seq      uint64
	Interval int64
	Tiers    []TierStats
}

// GatewayReport is the API gateway's per-interval load summary: the
// arrival rate over the interval and the end-to-end latency percentiles.
// Sequenced exactly like a node-agent report.
type GatewayReport struct {
	Gateway  string
	Seq      uint64
	Interval int64
	RPS      float64
	Perc     metrics.Percentiles
}
