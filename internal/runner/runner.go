// Package runner wires a simulated cluster, a workload generator, and a
// resource-management policy into Sinan's control loop (Sec. 4.1): every
// one-second decision interval the centralized scheduler reads per-tier
// stats from the node agents and load statistics from the API gateway,
// consults the policy, and enforces the chosen per-tier CPU allocation.
// The same loop drives Sinan, the baselines, and the data-collection
// policies, so comparisons share identical plumbing.
package runner

import (
	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/dataset"
	"sinan/internal/metrics"
	"sinan/internal/sim"
	"sinan/internal/statplane"
	"sinan/internal/telemetry"
	"sinan/internal/workload"
)

// Interval is the decision interval in simulated seconds, matching the
// granularity at which the paper's QoS is defined.
const Interval = 1.0

// State is the cluster/application snapshot a policy decides on.
type State struct {
	Time  float64
	Stats []cluster.Stats     // per-tier stats for the elapsed interval
	Perc  metrics.Percentiles // end-to-end latency summary of the interval
	Alloc []float64           // allocation currently in force
	RPS   float64             // API-gateway arrival rate over the interval
	QoSMS float64
	// StatsOK flags which tiers' node agents reported this interval. A nil
	// slice means every tier reported (the common case); a false entry
	// marks a dropped-out agent whose Stats row is zeroed and must be
	// imputed by the policy.
	StatsOK []bool
}

// Decision is a policy's output for the next interval.
type Decision struct {
	Alloc     []float64 // per-tier CPU allocation to enforce
	PredP99MS float64   // model-predicted p99 for the chosen action (0 if n/a)
	PViol     float64   // model-predicted violation probability (0 if n/a)
	Degraded  bool      // decided by a fallback path, not the model
	Brownout  int       // brownout ladder level that shaped the decision (0 = full)
}

// Policy decides per-tier CPU allocations once per decision interval.
//
// Nothing on this seam is allocated per interval, so every slice is lent
// (DESIGN.md §8, "Buffer ownership"). State.Stats and StatsOK are the stats
// plane's, State.Alloc is the run's; all three are rewritten next interval,
// and a policy may write Stats in place (the scheduler imputes silent
// tiers there). Decision.Alloc may be State.Alloc itself or a buffer the
// policy reuses: the run reads it before calling Decide again. Whoever
// keeps a slice longer copies it.
type Policy interface {
	Name() string
	Decide(s State) Decision
}

// PolicyFactory constructs a fresh Policy instance for one managed run.
// Policies are stateful (autoscale cooldown timestamps, PowerChief queue
// estimates, the scheduler's trust counters), so an instance must never be
// shared across runs — least of all concurrent ones. Code that executes
// more than one run takes a PolicyFactory instead of a Policy, which makes
// the reuse mistake unrepresentable: every run gets its own instance.
type PolicyFactory func() Policy

// TraceRow is one decision interval's record in a run trace.
type TraceRow struct {
	Time      float64
	RPS       float64
	P99MS     float64
	Drops     int
	PredP99MS float64
	PViol     float64
	Total     float64   // aggregate allocated cores
	Alloc     []float64 // per-tier allocation in force during the interval (capped: a cut of one per-run array)
	Degraded  bool      // the decision came from a fallback path
	Brownout  int       // brownout ladder level that shaped the decision
}

// FaultInjector is the hook through which a fault-injection plan attaches
// to a managed run (the concrete implementation lives in internal/faults;
// the interface is declared here so runner does not import it). Bind is
// called once before the first interval with the run's private engine and
// cluster. An injector that additionally implements statplane.ReportGate
// is wired into the run's stats plane, where it acts on actual report
// delivery — dropping or duplicating node-agent reports in flight rather
// than falsifying assembled rows.
type FaultInjector interface {
	Bind(eng *sim.Engine, cl *cluster.Cluster)
}

// Config describes one managed run.
type Config struct {
	App      *apps.App
	Policy   Policy
	Pattern  workload.Pattern
	Duration float64 // simulated seconds
	Seed     int64

	Warmup    float64           // seconds excluded from the QoS meter
	Recorder  *dataset.Recorder // optional training-data sink
	InitAlloc []float64         // starting allocation (default: per-tier max)
	KeepTrace bool              // retain the per-interval trace
	Faults    FaultInjector     // optional fault plan, owned by this run

	// Plane, when set, builds the run's stats plane around the run's
	// cluster and workload generator (both are created inside Run). Nil
	// means the deterministic in-process pipeline: one node agent per tier
	// plus a gateway reporter, gated by cfg.Faults when the injector
	// implements statplane.ReportGate. The distributed path (sinan-run
	// -stats-listen) supplies a factory returning a statplane.Hub.
	Plane func(cl *cluster.Cluster, gw statplane.GatewaySource) statplane.Plane

	// Metrics, when set, is the registry this run's telemetry lands on: the
	// run-level instruments ("run.*", all derived from simulated state and
	// therefore deterministic), plus whatever the policy and fault injector
	// register when they implement telemetry.Attacher (the Sinan scheduler's
	// "sched.*", the injector's "faults.*"). Nil means a fresh private
	// registry, reachable afterwards as Result.Metrics.
	Metrics *telemetry.Registry
}

// Result summarises a managed run.
type Result struct {
	Meter     *metrics.QoSMeter
	Trace     []TraceRow
	Completed int64
	Dropped   int64
	// Metrics is the run's telemetry registry (Config.Metrics, or the
	// private registry the run created). Snapshot it for a per-run metrics
	// dump; for a deterministic policy the snapshot is bit-identical across
	// harness worker counts, except for instruments named *_ms (wall-clock
	// latencies, by convention the only nondeterministic ones).
	Metrics *telemetry.Registry
}

// Run executes one managed run to completion.
func Run(cfg Config) *Result {
	eng := &sim.Engine{}
	rng := sim.NewRNG(cfg.Seed)
	cl := cluster.New(eng, rng.Fork(), cfg.App.Tiers)
	if cfg.InitAlloc != nil {
		cl.SetAlloc(cfg.InitAlloc)
	}
	gen := workload.NewGenerator(cl, cfg.App, rng.Fork(), cfg.Pattern)
	gen.Start()
	if cfg.Faults != nil {
		cfg.Faults.Bind(eng, cl)
	}

	// Per-run telemetry. The policy and fault injector rebind their
	// instruments here when they support it, so one registry holds the whole
	// run's story.
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if a, ok := cfg.Policy.(telemetry.Attacher); ok {
		a.AttachMetrics(reg)
	}
	if a, ok := cfg.Faults.(telemetry.Attacher); ok {
		a.AttachMetrics(reg)
	}

	// The stats plane: node agents + gateway reporter + aggregator. State
	// assembly lives behind statplane.Plane so the simulated (in-process,
	// deterministic) and distributed (TCP hub) paths share one snapshot
	// builder; the runner only converts IntervalState to State.
	var plane statplane.Plane
	if cfg.Plane != nil {
		plane = cfg.Plane(cl, gen)
	} else {
		var gate statplane.ReportGate
		if g, ok := cfg.Faults.(statplane.ReportGate); ok {
			gate = g
		}
		plane = statplane.NewInProcess(statplane.Config{
			Sampler: cl, NumTiers: cl.NumTiers(), Gateway: gen,
			IntervalSec: Interval, Gate: gate,
		})
	}
	if a, ok := plane.(telemetry.Attacher); ok {
		a.AttachMetrics(reg)
	}
	var (
		intervalsC = reg.Counter("run.intervals")
		violations = reg.Counter("run.qos.violations")
		dropsC     = reg.Counter("run.drops")
		degradedC  = reg.Counter("run.degraded.intervals")
		brownoutC  = reg.Counter("run.brownout.intervals")
		p99H       = reg.Histogram("run.interval.p99")
		rpsH       = reg.Histogram("run.interval.rps")
		allocH     = reg.Histogram("run.interval.alloc_total")
	)

	meter := metrics.NewQoSMeter(cfg.App.QoSMS)
	res := &Result{Meter: meter, Metrics: reg}

	// Everything an interval needs is sized here, once: the allocation
	// buffer State.Alloc lends the policy, and with KeepTrace the trace rows
	// and one flat array their Alloc slices cut from.
	intervals := int(cfg.Duration / Interval)
	alloc := make([]float64, cl.NumTiers())
	var traceAllocs []float64
	if cfg.KeepTrace {
		res.Trace = make([]TraceRow, 0, intervals)
		traceAllocs = make([]float64, intervals*len(alloc))
	}
	for i := 0; i < intervals; i++ {
		eng.Run(float64(i+1) * Interval)

		ist := plane.Collect(int64(i), eng.Now())
		perc := ist.Perc
		rps := ist.RPS
		state := State{
			Time:    ist.Time,
			Stats:   ist.Stats,
			Perc:    perc,
			Alloc:   cl.AllocInto(alloc),
			RPS:     rps,
			QoSMS:   cfg.App.QoSMS,
			StatsOK: ist.StatsOK,
		}
		dec := cfg.Policy.Decide(state)
		if dec.Alloc == nil {
			dec.Alloc = state.Alloc
		}

		// Run-level instruments observe simulated state only, so per-run
		// snapshots stay deterministic across harness worker counts.
		intervalsC.Inc()
		p99H.Observe(perc.P99())
		rpsH.Observe(rps)
		allocH.Observe(totalOf(state.Alloc))
		dropsC.Add(int64(perc.Drops))
		if perc.P99() > cfg.App.QoSMS || perc.Drops > 0 {
			violations.Inc()
		}
		if dec.Degraded {
			degradedC.Inc()
		}
		if dec.Brownout > 0 {
			brownoutC.Inc()
		}

		if cfg.Recorder != nil {
			cfg.Recorder.Observe(state.Stats, perc, dec.Alloc)
		}
		if state.Time > cfg.Warmup {
			meter.Observe(perc, totalOf(state.Alloc))
		}
		if cfg.KeepTrace {
			row := traceAllocs[i*len(alloc) : (i+1)*len(alloc) : (i+1)*len(alloc)]
			copy(row, state.Alloc)
			res.Trace = append(res.Trace, TraceRow{
				Time:      state.Time,
				RPS:       rps,
				P99MS:     perc.P99(),
				Drops:     perc.Drops,
				PredP99MS: dec.PredP99MS,
				PViol:     dec.PViol,
				Total:     totalOf(state.Alloc),
				Alloc:     row,
				Degraded:  dec.Degraded,
				Brownout:  dec.Brownout,
			})
		}
		cl.SetAlloc(dec.Alloc)
	}
	res.Completed = cl.Completed()
	res.Dropped = cl.DroppedRequests()
	reg.Counter("run.requests.completed").Add(res.Completed)
	reg.Counter("run.requests.dropped").Add(res.Dropped)
	reg.Counter("run.sim.events").Add(eng.Fired())
	return res
}

func totalOf(alloc []float64) float64 {
	s := 0.0
	for _, v := range alloc {
		s += v
	}
	return s
}

// Static is a policy that always returns a fixed allocation; StaticMax (nil
// target) holds whatever allocation is already in force. Used for capacity
// probes and as the "no management" control.
type Static struct {
	Target []float64
	Label  string
}

// Name implements Policy.
func (s *Static) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "static"
}

// Decide implements Policy.
func (s *Static) Decide(st State) Decision {
	if s.Target == nil {
		return Decision{Alloc: st.Alloc}
	}
	return Decision{Alloc: s.Target}
}

// PolicyFunc adapts a function to the Policy interface.
func PolicyFunc(name string, fn func(State) Decision) Policy {
	return policyFunc{name: name, fn: fn}
}

type policyFunc struct {
	name string
	fn   func(State) Decision
}

func (p policyFunc) Name() string            { return p.name }
func (p policyFunc) Decide(s State) Decision { return p.fn(s) }
