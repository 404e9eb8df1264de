package statplane

import (
	"fmt"

	"sinan/internal/cluster"
	"sinan/internal/metrics"
)

// TierSampler produces one tier's statistics for the interval since that
// tier was last sampled. cluster.Cluster implements it; the distributed
// hub wraps it to push samples to remote agents.
type TierSampler interface {
	SampleTier(tier int) cluster.Stats
}

// NodeAgent samples a subset of tiers each decision interval and emits one
// sequence-numbered Report over its transport — the per-node
// daemon of the paper's deployment, reduced to its reporting loop.
type NodeAgent struct {
	ID    string
	Tiers []int

	sampler TierSampler
	tr      *InProcess
	seq     uint64
	scratch []TierStats
}

// NewNodeAgent creates an agent owning the given tier indices.
func NewNodeAgent(id string, tiers []int, sampler TierSampler, tr *InProcess) *NodeAgent {
	return &NodeAgent{ID: id, Tiers: tiers, sampler: sampler, tr: tr,
		scratch: make([]TierStats, len(tiers))}
}

// Emit samples the agent's tiers and sends one report for the given
// interval. The report's backing storage is reused across calls — the
// aggregator copies on receipt.
func (a *NodeAgent) Emit(interval int64) {
	a.seq++
	for i, t := range a.Tiers {
		a.scratch[i] = TierStats{Tier: t, Stats: a.sampler.SampleTier(t)}
	}
	a.tr.SendReport(Report{
		Agent: a.ID, Seq: a.seq,
		Interval: interval, Tiers: a.scratch,
	})
}

// GatewaySource is what the gateway reporter reads: the cumulative
// submitted-request count and the flushable per-interval latency window.
// workload.Generator implements it.
type GatewaySource interface {
	Submitted() int64
	FlushWindow() metrics.Percentiles
}

// GatewayReporter emits the API gateway's per-interval load report:
// arrival rate computed from the submitted-count delta, plus the latency
// percentiles of the interval just ended. Flushing the source's window is
// a side effect — exactly one reporter may own a source.
type GatewayReporter struct {
	ID string

	src           GatewaySource
	tr            *InProcess
	intervalSec   float64
	seq           uint64
	lastSubmitted int64
}

// NewGatewayReporter creates a reporter over src for intervals of
// intervalSec simulated seconds.
func NewGatewayReporter(id string, src GatewaySource, intervalSec float64, tr *InProcess) *GatewayReporter {
	return &GatewayReporter{ID: id, src: src, intervalSec: intervalSec, tr: tr}
}

// Emit flushes the source's latency window and sends the interval's
// gateway report.
func (g *GatewayReporter) Emit(interval int64) {
	perc := g.src.FlushWindow()
	submitted := g.src.Submitted()
	rps := float64(submitted-g.lastSubmitted) / g.intervalSec
	g.lastSubmitted = submitted
	g.seq++
	g.tr.SendGatewayReport(GatewayReport{
		Gateway: g.ID, Seq: g.seq,
		Interval: interval, RPS: rps, Perc: perc,
	})
}

// PartitionTiers splits tiers 0..n-1 into contiguous groups of size per —
// the tier-to-node placement of a simulated deployment. per <= 1 yields
// one tier per agent (the default: each fault-injected dropout then
// silences exactly one tier, matching the paper's per-node blast radius).
func PartitionTiers(n, per int) [][]int {
	if per < 1 {
		per = 1
	}
	var parts [][]int
	for start := 0; start < n; start += per {
		end := start + per
		if end > n {
			end = n
		}
		tiers := make([]int, 0, end-start)
		for t := start; t < end; t++ {
			tiers = append(tiers, t)
		}
		parts = append(parts, tiers)
	}
	return parts
}

// AgentName returns the canonical name of the i-th simulated node agent.
func AgentName(i int) string { return fmt.Sprintf("node-%d", i) }
