// Package faults injects failures into managed runs. A Plan is a
// declarative, seed-reproducible schedule of fault events on the simulated
// clock — predictor outages and slowdowns, per-tier metric-agent dropouts,
// replica crashes, RPC error blips, and lossy stats-plane windows. An
// Injector executes one plan against one run: it binds to the run's
// private engine and cluster (satisfying runner.FaultInjector), gates the
// stats plane's report delivery (satisfying statplane.ReportGate, so
// dropouts lose actual reports in flight rather than falsifying rows),
// and wraps the scheduler's Predictor so model calls fail during the
// scheduled windows. Everything is driven by the sim clock and seeded
// RNGs, so a faulted run is exactly as reproducible as a healthy one:
// same plan, same seed, bit-identical results regardless of harness
// worker count.
package faults

import (
	"errors"
	"fmt"
	"sort"

	"sinan/internal/cluster"
	"sinan/internal/core"
	"sinan/internal/nn"
	"sinan/internal/sim"
	"sinan/internal/statplane"
	"sinan/internal/telemetry"
	"sinan/internal/tensor"
)

// Kind enumerates the fault classes the injector can schedule.
type Kind int

const (
	// PredictorOutage makes every model call fail for the window: the
	// prediction service is down, the circuit breaker is open, the network
	// is partitioned — from the scheduler's seat they are the same event.
	PredictorOutage Kind = iota
	// PredictorSlow adds Value seconds of inference latency. Calls whose
	// added latency reaches the caller's deadline fail with a timeout; the
	// sub-deadline case only shows up in counters, since decision intervals
	// are much longer than healthy inference.
	PredictorSlow
	// MetricDropout silences tier Tier's node agent for the window: every
	// stats-plane report carrying that tier is dropped in flight, so the
	// tier's row arrives zeroed with StatsOK=false and the policy must
	// impute.
	MetricDropout
	// ReplicaCrash kills a fraction of tier Tier's replicas: alive capacity
	// drops to Value (0..1) at Start and restores to 1 at End, shrinking
	// both effective CPU and connection slots for the window.
	ReplicaCrash
	// RPCBlips makes each RPC fail independently with probability Value
	// for the window — flaky-network noise rather than a hard outage. The
	// blips hit both RPC paths the scheduler depends on: model calls fail,
	// and node-agent stats reports are lost in flight (the same bad switch
	// carries both).
	RPCBlips
	// PredictorOverload saturates the prediction service: the load a call
	// adds scales with its batch size, so a call is shed with probability
	// Value × batch/ShedRefBatch (certainty at ≥1), and calls that survive
	// report a proportionally inflated cost through core.CostReporter. This
	// is the centralized-predictor scalability bottleneck the brownout
	// ladder exists for — smaller candidate batches genuinely relieve it.
	PredictorOverload
	// LossyReports degrades the whole stats plane for the window: every
	// node-agent report is independently dropped with probability Value
	// and, if it survives, duplicated with probability Value (retransmit
	// racing its original). The aggregator's sequence dedupe and the
	// scheduler's imputation absorb both.
	LossyReports
)

// String returns the kind's mnemonic.
func (k Kind) String() string {
	switch k {
	case PredictorOutage:
		return "predictor-outage"
	case PredictorSlow:
		return "predictor-slow"
	case MetricDropout:
		return "metric-dropout"
	case ReplicaCrash:
		return "replica-crash"
	case RPCBlips:
		return "rpc-blips"
	case PredictorOverload:
		return "predictor-overload"
	case LossyReports:
		return "lossy-reports"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one fault window on the simulated clock. Fault state applies
// from Start (inclusive) until End, when it reverts to healthy. Windows of
// the same kind (and, where applicable, tier) must not overlap.
type Event struct {
	Kind  Kind
	Start float64 // simulated seconds
	End   float64
	Tier  int     // MetricDropout, ReplicaCrash: target tier index
	Value float64 // Slow: added seconds; Crash: alive fraction; Blips/Lossy: P(fail)
}

// Plan is a reproducible fault schedule. Seed feeds the injector's private
// RNG (used only by RPCBlips); Events hold the windows.
type Plan struct {
	Seed   int64
	Events []Event
}

// Standard builds the canonical chaos schedule used by the chaos
// experiment: one hard predictor outage, one slowdown past the client
// deadline, one metric dropout, one half-capacity replica crash, and one
// flaky-RPC window, spread across a run of the given duration. Window
// placement and tier choices derive from seed, so two calls with equal
// arguments return identical plans.
func Standard(seed int64, duration float64, numTiers int) Plan {
	rng := sim.NewRNG(seed)
	// Each fault gets its own slot in [0.15, 0.95) of the run so windows of
	// different kinds never overlap and the warmup stays clean.
	slot := func(i int, frac float64) (float64, float64) {
		slotW := 0.8 * duration / 5
		base := 0.15*duration + float64(i)*slotW
		w := frac * slotW
		start := base + rng.Float64()*(slotW-w)
		return roundS(start), roundS(start + w)
	}
	tier := func() int {
		if numTiers <= 0 {
			return 0
		}
		return rng.Intn(numTiers)
	}
	var ev []Event
	s, e := slot(0, 0.5)
	ev = append(ev, Event{Kind: PredictorOutage, Start: s, End: e})
	s, e = slot(1, 0.4)
	ev = append(ev, Event{Kind: MetricDropout, Start: s, End: e, Tier: tier()})
	s, e = slot(2, 0.4)
	ev = append(ev, Event{Kind: PredictorSlow, Start: s, End: e, Value: 2.0})
	s, e = slot(3, 0.4)
	ev = append(ev, Event{Kind: ReplicaCrash, Start: s, End: e, Tier: tier(), Value: 0.5})
	s, e = slot(4, 0.5)
	ev = append(ev, Event{Kind: RPCBlips, Start: s, End: e, Value: 0.5})
	return Plan{Seed: seed, Events: ev}
}

// Overload builds the schedule for the overload experiment: a moderate
// predictor-overload window (some full batches survive), a sub-deadline
// slowdown past the scheduler's SlowPredictMS budget, and a severe overload
// window under which every full-size batch is shed and only browned-out
// queries get through. Placement derives from seed exactly as in Standard.
func Overload(seed int64, duration float64) Plan {
	rng := sim.NewRNG(seed)
	slot := func(i int, frac float64) (float64, float64) {
		slotW := 0.8 * duration / 3
		base := 0.15*duration + float64(i)*slotW
		w := frac * slotW
		start := base + rng.Float64()*(slotW-w)
		return roundS(start), roundS(start + w)
	}
	var ev []Event
	s, e := slot(0, 0.5)
	ev = append(ev, Event{Kind: PredictorOverload, Start: s, End: e, Value: 0.5})
	s, e = slot(1, 0.4)
	ev = append(ev, Event{Kind: PredictorSlow, Start: s, End: e, Value: 0.4})
	s, e = slot(2, 0.5)
	ev = append(ev, Event{Kind: PredictorOverload, Start: s, End: e, Value: 1.5})
	return Plan{Seed: seed, Events: ev}
}

// Lossy builds the lossy-stats-plane schedule of the chaos experiment:
// one long LossyReports window covering the middle [0.2, 0.8] of the run,
// dropping and duplicating node-agent reports with probability Value —
// the telemetry network misbehaving while the predictor stays healthy.
func Lossy(seed int64, duration, p float64) Plan {
	return Plan{Seed: seed, Events: []Event{
		{Kind: LossyReports, Start: roundS(0.2 * duration), End: roundS(0.8 * duration), Value: p},
	}}
}

// roundS keeps window edges on millisecond boundaries so plans print
// cleanly and float noise cannot creep into comparisons.
func roundS(t float64) float64 {
	return float64(int64(t*1000+0.5)) / 1000
}

// Injected-failure sentinels, distinguishable by errors.Is.
var (
	ErrOutage  = errors.New("faults: predictor outage")
	ErrTimeout = errors.New("faults: predictor deadline exceeded")
	ErrBlip    = errors.New("faults: injected RPC failure")
)

// ErrShed is the injected load-shed response of a PredictorOverload window.
// It implements Overloaded() bool so core.IsOverload classifies it exactly
// like predsvc.ErrOverloaded from a real overloaded service: the host is
// alive but refused the query, and the scheduler should brown out rather
// than retry at full size.
var ErrShed error = shedErr{}

type shedErr struct{}

func (shedErr) Error() string    { return "faults: predictor overloaded: query shed" }
func (shedErr) Overloaded() bool { return true }

// ShedRefBatch is the reference batch size for PredictorOverload: a window
// with Value v sheds a batch-b call with probability v×b/ShedRefBatch
// (certainty at ≥1). 64 sits just below the scheduler's full Table-1
// enumeration on the paper's applications, so a full batch at Value 1 is
// always shed while a brownout-shrunk batch usually survives.
const ShedRefBatch = 64.0

// Injector executes one Plan against one managed run. It implements
// runner.FaultInjector and additionally wraps a core.Predictor. An
// injector is single-run state, exactly like a dataset.Recorder: bind it
// to one engine, never share it across specs.
type Injector struct {
	plan Plan
	rng  *sim.RNG
	// reportRNG drives report-delivery coin flips (RPCBlips loss,
	// LossyReports drop/duplicate). It is separate from rng so adding
	// report faults to a plan does not perturb the predictor-blip
	// sequence, and vice versa.
	reportRNG *sim.RNG

	// Deadline a model call is assumed to carry; a PredictorSlow window
	// whose added latency reaches it turns calls into timeouts. Matches
	// predsvc's default call timeout.
	Deadline float64

	outage   bool
	slow     float64
	blipP    float64
	overload float64 // PredictorOverload Value in force (0 = healthy)
	lossy    float64 // LossyReports Value in force (0 = healthy)
	dropped  []bool

	// Cost of the last successful wrapped call in milliseconds, reported
	// deterministically through core.CostReporter so the scheduler's
	// brownout ladder sees injected slowness without any wall-clock
	// dependence.
	lastCostMS float64

	// Telemetry instruments ("faults.*"): what the injector actually did.
	// The runner rebinds them onto the per-run registry via AttachMetrics;
	// all counts are driven by the sim clock and the plan's seeded RNG, so
	// they are fully deterministic.
	predictorErrors *telemetry.Counter // model calls failed (outage + timeout + blips + sheds)
	slowCalls       *telemetry.Counter // calls delayed but under the deadline
	shedCalls       *telemetry.Counter // calls shed by an overload window
	droppedReports  *telemetry.Counter // node-agent reports lost in flight
	dupedReports    *telemetry.Counter // node-agent reports delivered twice
	crashWindows    *telemetry.Counter // replica-crash windows applied
}

// New returns an injector for the plan. Window sanity (ordering, bounds)
// is checked on Bind.
func New(plan Plan) *Injector {
	in := &Injector{
		plan:      plan,
		rng:       sim.NewRNG(plan.Seed ^ 0x5ad5ad),
		reportRNG: sim.NewRNG(plan.Seed ^ 0x7e907e9),
		Deadline:  1.0,
	}
	in.AttachMetrics(telemetry.NewRegistry())
	return in
}

// AttachMetrics implements telemetry.Attacher: it rebinds the injector's
// instruments onto reg so the run's registry carries the fault story too.
// The runner calls it after Bind but before the first interval; the window
// callbacks Bind scheduled read the handles through the injector, so they
// land on the rebound registry.
func (in *Injector) AttachMetrics(reg *telemetry.Registry) {
	in.predictorErrors = reg.Counter("faults.predictor.errors")
	in.slowCalls = reg.Counter("faults.predictor.slow_calls")
	in.shedCalls = reg.Counter("faults.predictor.sheds")
	in.droppedReports = reg.Counter("faults.reports.dropped")
	in.dupedReports = reg.Counter("faults.reports.duplicated")
	in.crashWindows = reg.Counter("faults.crash.windows")
}

// Bind schedules the plan's windows on the run's engine. Implements
// runner.FaultInjector; called by the runner once, before the first
// decision interval.
func (in *Injector) Bind(eng *sim.Engine, cl *cluster.Cluster) {
	in.dropped = make([]bool, cl.NumTiers())
	// Schedule in time order for reproducible event sequence numbers.
	evs := append([]Event(nil), in.plan.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
	for _, e := range evs {
		e := e
		if e.End < e.Start {
			panic(fmt.Sprintf("faults: %s window ends %.3f before start %.3f", e.Kind, e.End, e.Start))
		}
		switch e.Kind {
		case PredictorOutage:
			eng.At(e.Start, func() { in.outage = true })
			eng.At(e.End, func() { in.outage = false })
		case PredictorSlow:
			eng.At(e.Start, func() { in.slow = e.Value })
			eng.At(e.End, func() { in.slow = 0 })
		case MetricDropout:
			if e.Tier < 0 || e.Tier >= cl.NumTiers() {
				panic(fmt.Sprintf("faults: metric-dropout tier %d out of range", e.Tier))
			}
			eng.At(e.Start, func() { in.dropped[e.Tier] = true })
			eng.At(e.End, func() { in.dropped[e.Tier] = false })
		case ReplicaCrash:
			if e.Tier < 0 || e.Tier >= cl.NumTiers() {
				panic(fmt.Sprintf("faults: replica-crash tier %d out of range", e.Tier))
			}
			t := cl.Tiers()[e.Tier]
			eng.At(e.Start, func() {
				in.crashWindows.Inc()
				t.SetAliveFraction(e.Value)
			})
			eng.At(e.End, func() { t.SetAliveFraction(1) })
		case RPCBlips:
			eng.At(e.Start, func() { in.blipP = e.Value })
			eng.At(e.End, func() { in.blipP = 0 })
		case PredictorOverload:
			eng.At(e.Start, func() { in.overload = e.Value })
			eng.At(e.End, func() { in.overload = 0 })
		case LossyReports:
			eng.At(e.Start, func() { in.lossy = e.Value })
			eng.At(e.End, func() { in.lossy = 0 })
		default:
			panic(fmt.Sprintf("faults: unknown kind %d", int(e.Kind)))
		}
	}
}

// DeliverReport implements statplane.ReportGate: it decides the fate of
// one node-agent report in flight. A MetricDropout window loses every
// report carrying the silenced tier; an RPCBlips window loses reports
// with the window's probability (the same flaky network that fails model
// calls); a LossyReports window drops with probability Value and
// duplicates survivors with probability Value. All coin flips come from
// the injector's dedicated report RNG, so gated runs stay bit-identical
// across harness worker counts.
func (in *Injector) DeliverReport(r statplane.Report) statplane.Verdict {
	for _, ts := range r.Tiers {
		if ts.Tier >= 0 && ts.Tier < len(in.dropped) && in.dropped[ts.Tier] {
			in.droppedReports.Inc()
			return statplane.Drop
		}
	}
	if in.blipP > 0 && in.reportRNG.Float64() < in.blipP {
		in.droppedReports.Inc()
		return statplane.Drop
	}
	if in.lossy > 0 {
		if in.reportRNG.Float64() < in.lossy {
			in.droppedReports.Inc()
			return statplane.Drop
		}
		if in.reportRNG.Float64() < in.lossy {
			in.dupedReports.Inc()
			return statplane.Duplicate
		}
	}
	return statplane.Deliver
}

// Predictor wraps a model so its calls fail during the injector's
// predictor-fault windows. The wrapper consults the injector's current
// state (toggled by the engine events Bind scheduled), so it must only be
// used inside the same run the injector is bound to.
func (in *Injector) Predictor(base core.Predictor) core.Predictor {
	return &faultyPredictor{in: in, base: base}
}

type faultyPredictor struct {
	in   *Injector
	base core.Predictor
}

func (f *faultyPredictor) Meta() core.ModelMeta { return f.base.Meta() }

// LastPredictMS implements core.CostReporter: the injected cost of the last
// successful call (slowdown or overload pressure), in milliseconds. Zero
// while healthy.
func (f *faultyPredictor) LastPredictMS() float64 { return f.in.lastCostMS }

// PredictShared implements core.Predictor: the injector's current fault
// state decides the call (load scales with the candidate count — shedding
// is about batch work, not wire bytes), then the base model answers.
func (f *faultyPredictor) PredictShared(ctx *core.PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	cost, err := f.inject(in.Batch())
	if err != nil {
		return nil, nil, err
	}
	out, pviol, err := f.base.PredictShared(ctx, in)
	if err == nil {
		f.in.lastCostMS = cost
	}
	return out, pviol, err
}

// inject applies the injector's current fault state to one predictor call
// of the given batch size, returning the injected cost (ms) to record on
// success, or the fault error that replaces the call.
func (f *faultyPredictor) inject(batch int) (float64, error) {
	inj := f.in
	switch {
	case inj.outage:
		inj.predictorErrors.Inc()
		return 0, ErrOutage
	case inj.slow >= inj.Deadline:
		inj.predictorErrors.Inc()
		return 0, ErrTimeout
	case inj.slow > 0:
		inj.slowCalls.Inc()
	}
	cost := inj.slow * 1000 // injected inference latency, ms
	if inj.overload > 0 {
		// Load scales with batch size: a saturated predictor sheds big
		// candidate batches with near-certainty while a browned-out
		// batch-of-one usually squeezes through.
		load := inj.overload * float64(batch) / ShedRefBatch
		if load >= 1 || inj.rng.Float64() < load {
			inj.predictorErrors.Inc()
			inj.shedCalls.Inc()
			return 0, ErrShed
		}
		// Survivors pay queueing delay proportional to load.
		if c := load * inj.Deadline * 1000; c > cost {
			cost = c
		}
	}
	if inj.blipP > 0 && inj.rng.Float64() < inj.blipP {
		inj.predictorErrors.Inc()
		return 0, ErrBlip
	}
	return cost, nil
}
