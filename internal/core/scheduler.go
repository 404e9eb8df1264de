package core

import (
	"cmp"
	"errors"
	"math"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/dataset"
	"sinan/internal/metrics"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/telemetry"
	"sinan/internal/tensor"
)

// SchedulerOptions tunes the online scheduler.
type SchedulerOptions struct {
	// Pd / Pu override the model's calibrated violation-probability
	// thresholds when non-zero (p_d < p_u; Sec. 4.3).
	Pd, Pu float64
	// UtilCap rejects downsizing that would push a tier's CPU utilization
	// above this bound (the paper's overly-aggressive-downsizing guard).
	// Default 0.6: long-service-time tiers hit the queueing cliff well below
	// full utilization under bursty arrivals, so the cap keeps real headroom.
	UtilCap float64
	// SlowPredictMS is the prediction-cost budget: a successful model query
	// whose reported cost (CostReporter) exceeds it counts as overload
	// pressure. Default 250 (a quarter of the decision interval); negative
	// disables slowness-driven escalation.
	SlowPredictMS float64
	// NoBrownout disables the ladder: the scheduler always enumerates the
	// full candidate set regardless of prediction-path health. This is the
	// rigid baseline the overload experiment measures against.
	NoBrownout bool
}

func (o SchedulerOptions) withDefaults() SchedulerOptions {
	if o.UtilCap == 0 {
		o.UtilCap = 0.6
	}
	if o.SlowPredictMS == 0 {
		o.SlowPredictMS = 250
	}
	return o
}

const (
	// trustThreshold is the number of missed QoS violations past which the
	// scheduler reduces trust in the model and stops reclaiming resources.
	trustThreshold = 25
	// staleCap bounds hold-last-value imputation of missing tier stats: a
	// tier whose node agent has been silent for more than staleCap
	// consecutive intervals is biased toward upscale instead of trusted at
	// its last reading (flying blind must fail safe).
	staleCap = 5
)

// Scheduler is Sinan's online resource manager (Sec. 4.3). It implements
// runner.Policy. Each interval runs three stages — enumerate Table 1, score
// the rows on the model, choose the cheapest acceptable one — behind the
// safety net. The Scheduler is wiring, plus the one carried value.
type Scheduler struct {
	M    Predictor
	meta ModelMeta
	Opts SchedulerOptions

	tiers   []cluster.TierConfig
	carried carried

	// Telemetry instruments ("sched.*"). AttachMetrics rebinds the handles
	// onto a per-run registry, so nothing the scheduler decides from lives
	// here. Every one is driven by simulated time, so deterministic.
	mispredictions    *telemetry.Counter
	predictErrors     *telemetry.Counter
	predictSheds      *telemetry.Counter
	degradedIntervals *telemetry.Counter
	recoveries        *telemetry.Counter
	brownoutIntervals *telemetry.Counter
	candidatesScored  *telemetry.Counter
	payloadFloats     *telemetry.Gauge // float64s shipped to the model by the last query

	// Evaluation state, reused every interval: the candidate set, the
	// prediction context, and the view headers over the candidate rows and
	// the one shared history window. The shared Predictor stays immutable.
	cands        *candidates
	p99          []float64
	predCtx      *PredictContext
	in           nn.SharedInputs
	rhRow, lhRow []float64

	// allocs are the two buffers a written Decision.Alloc lives in, taken in
	// turn (nextAlloc, carried.allocTurn). A caller may pass a decision's
	// Alloc back as the next State.Alloc — the decision is then read while
	// the next is written — so one buffer would not do.
	allocs [2][]float64
}

// carried is the state one interval hands the next: the history windows, the
// last prediction, the safety net's timers and counters (Sec. 4.3), degraded
// mode with its stale-stats imputation, and the brownout ladder (overload.go).
// Its methods, Decide and nextAlloc change it; a reset is one assignment.
type carried struct {
	statHist, latHist *metrics.History[[]float64]
	lastPredP99       float64
	lastPredValid     bool
	downAge           []int // intervals since tier was last scaled down
	mispredicted      int   // QoS violations the model did not predict
	cooldown          int   // intervals to hold after an emergency upscale

	// While the predictor errors (host down, breaker open, injected outage)
	// the conservative built-in fallback decides; lastGood / staleFor back
	// hold-last-value imputation of missing tier stats.
	degraded  bool
	noDownFor int // post-recovery intervals with reclamation suppressed
	lastGood  []cluster.Stats
	staleFor  []int // intervals each tier's stats have been missing

	brownLevel int // brownout ladder level
	brownGood  int // consecutive healthy queries at the current level
	allocTurn  int // the Scheduler.allocs buffer the next decision writes
}

// newCarried is the state before the first interval: n tiers, windows of t.
func newCarried(n, t int) carried {
	c := carried{
		statHist: metrics.NewHistory[[]float64](t),
		latHist:  metrics.NewHistory[[]float64](t),
		downAge:  make([]int, n),
		lastGood: make([]cluster.Stats, n),
		staleFor: make([]int, n),
	}
	for i := range c.downAge {
		c.downAge[i] = 1 << 30
	}
	return c
}

// NewScheduler builds the scheduler for an application.
func NewScheduler(app *apps.App, m Predictor, opts SchedulerOptions) *Scheduler {
	meta := m.Meta()
	s := &Scheduler{
		M:       m,
		meta:    meta,
		Opts:    opts.withDefaults(),
		tiers:   app.Tiers,
		carried: newCarried(len(app.Tiers), meta.D.T),
		cands:   newCandidates(len(app.Tiers)),
		predCtx: NewPredictContext(),
	}
	s.AttachMetrics(telemetry.NewRegistry())
	return s
}

// AttachMetrics implements telemetry.Attacher: it rebinds the scheduler's
// instruments ("sched.*") onto reg so subsequent decisions are counted
// there. The runner calls it with the per-run registry before the run
// starts; counts recorded on a previously attached registry stay there.
func (s *Scheduler) AttachMetrics(reg *telemetry.Registry) {
	s.mispredictions = reg.Counter("sched.mispredictions")
	s.predictErrors = reg.Counter("sched.predict.errors")
	s.predictSheds = reg.Counter("sched.predict.sheds")
	s.degradedIntervals = reg.Counter("sched.degraded.intervals")
	s.recoveries = reg.Counter("sched.degraded.recoveries")
	s.brownoutIntervals = reg.Counter("sched.brownout.intervals")
	s.candidatesScored = reg.Counter("sched.candidates.scored")
	s.payloadFloats = reg.Gauge("sched.predict.payload_floats")
}

// RefreshMeta re-reads the predictor's metadata. A lifecycle manager calls
// it after hot-swapping the served model so the scheduler's filters pick up
// the new calibration (explicit SchedulerOptions.Pd/Pu overrides stay
// pinned: limits prefers them). Dims must not change across a swap — the
// validation gate enforces that before any promotion.
func (s *Scheduler) RefreshMeta() {
	// A dims change would invalidate the history windows and input tensors:
	// refuse it (the gate should have) and keep the old calibration.
	if meta := s.M.Meta(); meta.D == s.meta.D {
		s.meta = meta
	}
}

// Mispredictions returns the count of QoS violations the model failed to
// predict (the trust-erosion signal of Sec. 4.3), across every registry.
func (s *Scheduler) Mispredictions() int { return s.carried.mispredicted }

// PredictErrors returns the count of model queries that returned an error.
func (s *Scheduler) PredictErrors() int { return int(s.predictErrors.Value()) }

// PredictSheds returns the count of predictor errors classified as load
// sheds (the service alive but refusing work).
func (s *Scheduler) PredictSheds() int { return int(s.predictSheds.Value()) }

// DegradedIntervals returns the count of intervals decided by the fallback
// policy.
func (s *Scheduler) DegradedIntervals() int { return int(s.degradedIntervals.Value()) }

// Recoveries returns the count of degraded → model-driven transitions.
func (s *Scheduler) Recoveries() int { return int(s.recoveries.Value()) }

// BrownoutIntervals returns the count of decisions shaped by a non-zero
// brownout level.
func (s *Scheduler) BrownoutIntervals() int { return int(s.brownoutIntervals.Value()) }

// CandidatesScored returns the total number of candidates sent to the model
// (the batch-economics denominator).
func (s *Scheduler) CandidatesScored() int { return int(s.candidatesScored.Value()) }

// SchedulerFactory returns a runner.PolicyFactory producing a fresh Sinan
// scheduler per managed run. The hybrid model is shared by every run — a
// trained model is an immutable value, and each scheduler owns the
// prediction context holding all per-call evaluation state — while the
// trust counters, history windows, and misprediction tallies start fresh
// per run. This is the constructor harness-driven code must use: handing
// one *Scheduler to several runs would leak trust state between them.
func SchedulerFactory(app *apps.App, m *HybridModel, opts SchedulerOptions) runner.PolicyFactory {
	return func() runner.Policy {
		return NewScheduler(app, m, opts)
	}
}

// Name implements runner.Policy.
func (s *Scheduler) Name() string { return "Sinan" }

// Decide implements runner.Policy. It reads top to bottom as observe → gate
// → enumerate → score → choose → commit, and every path leaves through the
// one return at the bottom, which is where the Decision is built.
func (s *Scheduler) Decide(st runner.State) runner.Decision {
	c := &s.carried
	// The brownout level this interval's candidates are enumerated at.
	// Pressure or relief below moves the ladder for the next interval only,
	// so the recorded level matches the batch actually sent to the model.
	level := c.brownLevel
	var (
		alloc          = st.Alloc // hold, unless a stage below says otherwise
		predP99, pviol float64
		chosen         bool
	)

	// Observe: impute silent tiers, check the last prediction against what
	// happened, extend the history windows.
	c.imputeStats(st)
	if c.noDownFor > 0 {
		c.noDownFor--
	}
	violated := st.Perc.P99() > s.meta.QoSMS || st.Perc.Drops > 0
	surprised := violated && c.lastPredValid && c.lastPredP99 <= s.meta.QoSMS-s.meta.RMSEValid
	// The training recorder's own PushWindow and 2.5×QoS latency clip:
	// deployment inputs stay on the training distribution by construction.
	dataset.PushWindow(c.statHist, c.latHist, s.meta.D, st.Stats, st.Perc, 2.5*s.meta.QoSMS)
	if !surprised {
		for i := range c.downAge {
			c.downAge[i]++
		}
	}

	switch {
	case surprised:
		// Safety mechanism: a QoS violation the model did not predict erodes
		// trust and upscales every tier at once (Sec. 4.3), so the built-up
		// queues drain before they cascade.
		c.mispredicted++
		s.mispredictions.Inc()
		c.cooldown = victimWindow
		alloc, pviol = s.boosted(st.Alloc), 1

	case !c.statHist.Full():
		// Bootstrapping: hold until the history window fills.

	case c.cooldown > 0:
		// Post-emergency cool-down: hold (or keep ramping, if latency is
		// still past QoS) while queues drain and the history window refills
		// with clean state, so the model does not reclaim into the spike.
		c.cooldown--
		if violated {
			alloc, pviol = s.boosted(st.Alloc), 1
		}

	default:
		if level > BrownoutNone {
			s.brownoutIntervals.Inc()
		}
		enumerate(s.cands, observation{
			cur: st.Alloc, stats: st.Stats, stale: c.staleFor, downAge: c.downAge,
			tiers: s.tiers, utilCap: s.Opts.UtilCap, level: level,
		})
		cands := s.cands
		s.candidatesScored.Add(int64(len(cands.kind)))

		p99, pviols, err := s.score()
		if err != nil {
			// Model path unavailable: the conservative built-in policy decides
			// and the next question is smaller. Every interval retries the
			// model (the query is the recovery probe; a resilient client's
			// breaker makes it cheap), so degraded means the fallback decided.
			s.predictErrors.Inc()
			if IsOverload(err) {
				s.predictSheds.Inc()
			}
			c.brownoutPressure(s.Opts.NoBrownout)
			c.degraded = true
			s.degradedIntervals.Inc()
			alloc, pviol = s.fallback(st, violated)
			break
		}
		var costMS float64
		if cr, ok := s.M.(CostReporter); ok {
			costMS = cr.LastPredictMS()
		}
		c.brownoutObserve(s.Opts.NoBrownout, s.Opts.SlowPredictMS, costMS)
		if c.degraded {
			// A successful probe ends degraded mode. Suppress reclamation for
			// a victim window, so the model decides from refreshed history
			// before any capacity is taken away.
			c.degraded = false
			s.recoveries.Inc()
			c.noDownFor = victimWindow
		}

		best, ok := choose(cands.kind, cands.total, p99, pviols, s.limits(st))
		if !ok {
			// No action is predicted safe: start the emergency ramp.
			c.cooldown = victimWindow
			alloc, pviol = s.boosted(st.Alloc), 1
			break
		}
		// Commit. The chosen row is a view into a buffer the next interval
		// overwrites, so it is copied out once.
		alloc = s.nextAlloc(cands.row(best))
		for i, v := range alloc {
			if v < st.Alloc[i] {
				c.downAge[i] = 0
			}
		}
		alloc = c.biasStale(alloc, s.tiers)
		predP99, pviol, chosen = p99[best], pviols[best], true
	}

	// The one exit. A prediction is only held against the next interval's
	// outcome when the model chose this interval's action.
	c.lastPredValid, c.lastPredP99 = chosen, predP99
	return runner.Decision{Alloc: alloc, PredP99MS: predP99, PViol: pviol, Degraded: c.degraded, Brownout: level}
}

// imputeStats fills in, in place, the stats of tiers whose agents dropped out
// (st.StatsOK false; nil means all reported) with the last good reading, and
// tracks staleness. The CPU limit comes from the allocation in force.
func (c *carried) imputeStats(st runner.State) {
	for i := range st.Stats {
		if st.StatsOK == nil || st.StatsOK[i] {
			c.lastGood[i] = st.Stats[i]
			c.staleFor[i] = 0
			continue
		}
		c.staleFor[i]++
		st.Stats[i] = c.lastGood[i]
		if i < len(st.Alloc) {
			st.Stats[i].CPULimit = st.Alloc[i]
		}
	}
}

// fallback is the degraded-mode policy: an AutoScaleCons-shaped step scaler
// that holds or scales up, never down — matching the paper's observation
// that only the conservative autoscaler reliably meets QoS without a model.
// Observed violations still trigger the emergency ramp.
func (s *Scheduler) fallback(st runner.State, violated bool) (alloc []float64, pviol float64) {
	if violated {
		return s.carried.biasStale(s.boosted(st.Alloc), s.tiers), 1
	}
	alloc = s.nextAlloc(st.Alloc)
	for i := range alloc {
		util := st.Stats[i].CPUUsage / math.Max(alloc[i], 1e-9)
		switch {
		case util >= 0.5:
			alloc[i] = s.tiers[i].ClampCPU(math.Max(alloc[i]*1.3, alloc[i]+0.2))
		case util >= 0.3:
			alloc[i] = s.tiers[i].ClampCPU(math.Max(alloc[i]*1.1, alloc[i]+0.1))
		}
	}
	return s.carried.biasStale(alloc, s.tiers), 0
}

// biasStale upscales, in place, tiers whose stats have been missing beyond
// the staleness cap: hold-last-value is only trustworthy briefly, after which
// the safe assumption is that the silent tier needs more capacity, not less.
func (c *carried) biasStale(alloc []float64, tiers []cluster.TierConfig) []float64 {
	for i := range alloc {
		if c.staleFor[i] > staleCap {
			alloc[i] = tiers[i].ClampCPU(math.Max(alloc[i]*1.1, alloc[i]+0.2))
		}
	}
	return alloc
}

// boosted returns the emergency-ramp allocation: every tier doubled (plus a
// constant so tiers at the floor move), on the grid and in bounds like every
// allocation the scheduler emits. The ramp is geometric — continued through
// the cool-down while the violation persists — rather than one jump to the
// maximum: it gets there within a few intervals of a real overload without
// paying the worst-case allocation for one noisy interval.
func (s *Scheduler) boosted(cur []float64) []float64 {
	out := s.nextAlloc(cur)
	for i := range out {
		out[i] = s.tiers[i].ClampCPU(out[i]*2 + 0.5)
	}
	return out
}

// nextAlloc copies cur into the Decision.Alloc buffer whose turn it is and
// returns it. The buffers alternate, so the one returned is never the
// previous decision's: Decision.Alloc stays valid through the next Decide,
// and the Decide after that may overwrite it.
func (s *Scheduler) nextAlloc(cur []float64) []float64 {
	buf := append(s.allocs[s.carried.allocTurn][:0], cur...)
	s.allocs[s.carried.allocTurn] = buf
	s.carried.allocTurn ^= 1
	return buf
}

// limits derives this interval's acceptance bounds: the model's calibration
// or the options' override, then what the carried state says (trust).
func (s *Scheduler) limits(st runner.State) limits {
	qos := s.meta.QoSMS
	lim := limits{pd: cmp.Or(s.Opts.Pd, s.meta.Pd), pu: cmp.Or(s.Opts.Pu, s.meta.Pu), latBound: qos - s.meta.RMSEValid}
	// Reclamations keep a headroom of 30% of QoS: the model's smooth response
	// surface understates how sharp the queueing cliff is, so stepping down
	// is only allowed while clearly inside the safe region.
	lim.downBound = min(lim.latBound, 0.7*qos)
	s.carried.trust(&lim, st.Perc.P99(), qos, s.meta.D.M)
	return lim
}

// trust narrows lim by the scheduler's trust in the model and the observed
// tail p99 against the QoS target qos; m is the latency history's width.
func (c *carried) trust(lim *limits, p99, qos float64, m int) {
	if c.mispredicted > trustThreshold {
		// Reduced trust: stop reclaiming.
		lim.pd = 0
	}
	if c.ultraSafe(p99, 0.5*qos, m) {
		// The classifier claims danger while every recent interval sat far
		// below QoS — the observations win (the inverse of the trust
		// mechanism: consistent over-prediction must not freeze the scheduler
		// at maximum allocation). The latency and utilization filters remain.
		lim.pd, lim.pu = 1, 1
	}
	// Nothing is reclaimed while the tail is past the target, nor right after
	// a degraded-mode recovery, while the model re-earns its authority.
	lim.hot = p99 > qos || c.noDownFor > 0
}

// ultraSafe reports whether the current tail p99 and the p99 column (the
// last of m) of every remembered interval ran below bound.
func (c *carried) ultraSafe(p99, bound float64, m int) bool {
	if p99 >= bound {
		return false
	}
	for i := 0; i < c.latHist.Len(); i++ {
		if c.latHist.At(i)[m-1] >= bound {
			return false
		}
	}
	return true
}

// score evaluates the enumerated candidates in one model query over the
// one history window they share (W = 1) and returns each row's predicted
// p99 and violation probability. The window and the candidate rows are
// wrapped in reusable view headers, not copied; the payload gauge records
// what was sent.
func (s *Scheduler) score() (p99, pviol []float64, err error) {
	d := s.meta.D
	b := len(s.cands.kind)
	s.rhRow, s.lhRow = dataset.WindowInputsInto(s.rhRow, s.lhRow, d, s.carried.statHist, s.carried.latHist)
	s.in.RH = tensor.View(s.in.RH, s.rhRow, 1, d.F, d.N, d.T)
	s.in.LH = tensor.View(s.in.LH, s.lhRow, 1, d.T, d.M)
	s.in.RC = tensor.View(s.in.RC, s.cands.rc[:b*d.N], b, d.N)
	s.payloadFloats.Set(float64(len(s.rhRow) + len(s.lhRow) + b*d.N))
	pred, pviol, err := s.M.PredictShared(s.predCtx, s.in)
	if err == nil {
		s.p99, err = predictedP99(s.p99[:0], pred, pviol, d.M)
	}
	return s.p99, pviol, err
}

// errGarbagePrediction marks a model answer the filters cannot compare.
var errGarbagePrediction = errors.New("core: model returned a non-finite p99 or an invalid violation probability")

// predictedP99 appends the p99 column of pred to dst, refusing an answer with
// a NaN or infinite p99 or a NaN, infinite or negative violation probability.
// Every comparison against NaN is false, so choose would accept a garbage
// reclaim; as an error the answer takes the path that never scales down.
func predictedP99(dst []float64, pred *tensor.Dense, pviol []float64, m int) ([]float64, error) {
	for i, pv := range pviol {
		p99 := pred.Data[i*m+m-1] // not At: its variadic index escapes, one allocation per call
		if math.IsNaN(p99) || math.IsInf(p99, 0) || !(pv >= 0) || math.IsInf(pv, 1) {
			return dst, errGarbagePrediction
		}
		dst = append(dst, p99)
	}
	return dst, nil
}
