package statplane

import (
	"sinan/internal/telemetry"
)

// Plane is what the control loop sees of the stats plane: one call per
// decision interval that drives sampling, reporting, and assembly, and
// returns the interval's snapshot. The in-process Pipeline and the
// distributed Hub both implement it, so runner.Run builds State the same
// way whether the agents are function calls or remote processes.
//
// The snapshot's Stats and StatsOK are the plane's aggregator's buffers,
// reused every interval: they stay valid until the next Collect, which is
// all the control loop needs, and a caller that keeps them longer copies
// (DESIGN.md §8, "Buffer ownership").
type Plane interface {
	Collect(interval int64, now float64) IntervalState
}

// Pipeline is the in-process stats plane of a simulated run: node agents
// (one per tier partition) and a gateway reporter emitting through a
// shared InProcess transport into one aggregator, all synchronously within
// Collect, so the whole plane is deterministic.
type Pipeline struct {
	agents  []*NodeAgent
	gateway *GatewayReporter
	agg     *Aggregator
}

// Config assembles an in-process pipeline around one run's cluster and
// workload generator.
type Config struct {
	Sampler     TierSampler
	NumTiers    int
	Gateway     GatewaySource // nil: no gateway reporter (RPS/Perc stay zero)
	IntervalSec float64
	// Gate optionally intercepts report delivery (fault injection).
	Gate ReportGate
}

// NewInProcess builds the deterministic in-process plane: one agent per
// tier, named node-0..node-k (so each dropout silences exactly one tier's
// stats), delivering synchronously through an InProcess transport.
func NewInProcess(cfg Config) *Pipeline {
	agg := NewAggregator(AggregatorOptions{NumTiers: cfg.NumTiers})
	tr := &InProcess{Sink: agg, Gate: cfg.Gate}
	p := &Pipeline{agg: agg}
	for i, tiers := range PartitionTiers(cfg.NumTiers, 1) {
		name := AgentName(i)
		agg.RegisterAgent(name)
		p.agents = append(p.agents, NewNodeAgent(name, tiers, cfg.Sampler, tr))
	}
	if cfg.Gateway != nil {
		agg.ExpectGateway()
		p.gateway = NewGatewayReporter("gateway", cfg.Gateway, cfg.IntervalSec, tr)
	}
	return p
}

// Collect implements Plane: open the interval, let every emitter report,
// and assemble the snapshot.
func (p *Pipeline) Collect(interval int64, now float64) IntervalState {
	p.agg.BeginInterval(interval)
	for _, a := range p.agents {
		a.Emit(interval, now)
	}
	if p.gateway != nil {
		p.gateway.Emit(interval)
	}
	return p.agg.Assemble(interval, now)
}

// AttachMetrics implements telemetry.Attacher by rebinding the
// aggregator's instruments.
func (p *Pipeline) AttachMetrics(reg *telemetry.Registry) {
	p.agg.AttachMetrics(reg)
}
