package core

import (
	"errors"
	"math"
	"sort"
	"time"

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
	UtilCap float64
	// VictimWindow is the t of "Scale Up Victim": tiers scaled down within
	// the last t decision intervals are candidates for re-inflation.
	VictimWindow int
	// TrustThreshold is the number of missed QoS violations after which the
	// scheduler reduces trust in the model and stops reclaiming resources.
	TrustThreshold int
	// BatchKs are the k values tried for "Scale Down Batch" (k least
	// utilized tiers); values above N−1 are clamped.
	BatchKs []int
	// StaleCap bounds hold-last-value imputation of missing tier stats: a
	// tier whose node agent has been silent for more than StaleCap
	// consecutive intervals is biased toward upscale instead of trusted at
	// its last reading (flying blind must fail safe).
	StaleCap int

	// BrownoutTopK is the per-direction tier budget at brownout level 1:
	// single-tier scale-ups are enumerated only for the k most utilized
	// tiers and scale-downs only for the k least utilized ones (default 4).
	BrownoutTopK int
	// BrownoutRecover is the hysteresis on the way down the ladder: the
	// number of consecutive healthy model queries before the scheduler
	// steps one brownout level toward full enumeration (default 3).
	// Escalation is immediate — one shed, slow, or failed query per step —
	// because under overload every oversized query makes the overload
	// worse; recovery is deliberately slower so a single lucky query cannot
	// flap the ladder.
	BrownoutRecover int
	// SlowPredictMS is the prediction-cost budget: a successful model query
	// whose reported cost (CostReporter) exceeds it counts as overload
	// pressure. Default 250 (a quarter of the decision interval); negative
	// disables slowness-driven escalation.
	SlowPredictMS float64
	// NoBrownout disables the ladder entirely: the scheduler always
	// enumerates the full candidate set regardless of prediction-path
	// health. This is the rigid baseline the overload experiment measures
	// against.
	NoBrownout bool
}

func (o SchedulerOptions) withDefaults() SchedulerOptions {
	if o.UtilCap == 0 {
		// Long-service-time tiers hit the queueing cliff well below full
		// utilization under bursty arrivals, so the cap keeps real headroom.
		o.UtilCap = 0.6
	}
	if o.VictimWindow == 0 {
		o.VictimWindow = 5
	}
	if o.TrustThreshold == 0 {
		o.TrustThreshold = 25
	}
	if o.BatchKs == nil {
		o.BatchKs = []int{2, 4, 8, 16}
	}
	if o.StaleCap == 0 {
		o.StaleCap = 5
	}
	if o.BrownoutTopK == 0 {
		o.BrownoutTopK = 4
	}
	if o.BrownoutRecover == 0 {
		o.BrownoutRecover = 3
	}
	if o.SlowPredictMS == 0 {
		o.SlowPredictMS = 250
	}
	return o
}

// candidate is one evaluated resource operation.
type candidate struct {
	alloc []float64
	total float64
	kind  candKind
	tier  int // affected tier for single-tier ops, -1 otherwise
}

type candKind int

const (
	kindHold candKind = iota
	kindDown
	kindDownBatch
	kindUp
	kindUpAll
	kindUpVictim
)

// Predictor is the model interface the scheduler consults: batched
// candidate evaluation plus the metadata its filters need. The context
// carries all per-caller evaluation state (implementations must accept
// nil and allocate a throwaway). *HybridModel is the production
// implementation; predsvc.Client is the remote one; tests substitute
// fakes. A non-nil error means the model path is unavailable (RPC
// failure, open circuit breaker, injected outage) — the scheduler then
// falls back to its built-in conservative policy rather than crashing.
type Predictor interface {
	PredictBatch(ctx *PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error)
	Meta() ModelMeta
}

// SharedPredictor is the optional deduplicated fast path: candidates of one
// decision interval share a single history window, so implementations take
// it once plus per-candidate allocations instead of a batch of repeated
// rows. *HybridModel and predsvc.Client implement it; predictors that do
// not are served through PredictSharedAuto's expansion bridge.
type SharedPredictor interface {
	PredictShared(ctx *PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error)
}

// PredictSharedAuto evaluates a shared-history candidate batch on any
// Predictor: the deduplicated path when p implements SharedPredictor,
// otherwise the window is expanded into ctx's scratch and sent down the
// ordinary per-row PredictBatch. Either way the results are those of
// PredictBatch on the expanded batch — bit-identical, per the shared-path
// contract.
func PredictSharedAuto(p Predictor, ctx *PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	if sp, ok := p.(SharedPredictor); ok {
		return sp.PredictShared(ctx, in)
	}
	if ctx == nil {
		ctx = NewPredictContext()
	}
	in.Expand(&ctx.expand)
	return p.PredictBatch(ctx, ctx.expand)
}

// ModelMeta is the model metadata the scheduler's filters depend on.
type ModelMeta struct {
	D                nn.Dims
	QoSMS, RMSEValid float64
	Pd, Pu           float64
}

// Scheduler is Sinan's online resource manager (Sec. 4.3). It implements
// runner.Policy.
type Scheduler struct {
	M    Predictor
	meta ModelMeta
	Opts SchedulerOptions

	minCPU, maxCPU []float64

	statHist, latHist *metrics.History[[]float64]
	lastPredP99       float64
	lastPredValid     bool
	downAge           []int // intervals since tier was last scaled down
	mistrust          int
	cooldown          int // intervals to hold after an emergency upscale

	// Degraded-mode state: when the predictor errors (model host down,
	// breaker open, injected outage) the scheduler runs its conservative
	// built-in fallback until a model query succeeds again. lastGood /
	// staleFor back hold-last-value imputation of missing tier stats.
	degraded  bool
	noDownFor int // post-recovery intervals with reclamation suppressed
	lastGood  []cluster.Stats
	staleFor  []int
	missing   []bool

	// Brownout ladder state: while the prediction path is slow, shed, or
	// erroring, the scheduler shrinks its candidate enumeration (full →
	// top-k tiers → hold-only) instead of missing its decision interval,
	// and recovers one level per BrownoutRecover consecutive healthy
	// queries.
	brownLevel int
	brownGood  int // consecutive healthy queries at the current level

	// Telemetry instruments ("sched.*"). All operational tallies live here
	// — the exported accessors (Mispredictions, PredictErrors, ...) are
	// views over these counters. AttachMetrics rebinds the handles onto a
	// per-run registry; the counters themselves are deterministic (driven by
	// simulated time), while the two *_ms histograms record wall-clock cost
	// and are, by the naming convention, the only nondeterministic
	// instruments.
	reg               *telemetry.Registry
	mispredictions    *telemetry.Counter
	predictErrors     *telemetry.Counter
	predictSheds      *telemetry.Counter
	degradedIntervals *telemetry.Counter
	recoveries        *telemetry.Counter
	brownoutIntervals *telemetry.Counter
	candidatesScored  *telemetry.Counter
	brownoutGauge     *telemetry.Gauge     // current ladder level
	degradedGauge     *telemetry.Gauge     // 1 while in fallback mode
	decideLatMS       *telemetry.Histogram // wall cost of each Decide
	predictLatMS      *telemetry.Histogram // wall cost of each model query
	candBatch         *telemetry.Histogram // candidate batch sizes sent to the model
	payloadFloats     *telemetry.Gauge     // float64s shipped to the model by the last query

	// Per-scheduler model-evaluation state: the prediction context, the
	// reused per-candidate allocation tensor, and the view headers wrapping
	// the one shared history window. These make the steady-state decide
	// path allocation-free on the model side while the shared Predictor
	// itself stays immutable.
	predCtx      *PredictContext
	candRC       *tensor.Dense
	winRH, winLH *tensor.Dense
	rhRow, lhRow []float64

	// Whether Pd/Pu were taken from the model's calibration (vs pinned by
	// options): RefreshMeta re-derives only model-sourced thresholds.
	pdFromModel, puFromModel bool
}

// NewScheduler builds the scheduler for an application.
func NewScheduler(app *apps.App, m Predictor, opts SchedulerOptions) *Scheduler {
	opts = opts.withDefaults()
	meta := m.Meta()
	pdFromModel, puFromModel := opts.Pd == 0, opts.Pu == 0
	if opts.Pd == 0 {
		opts.Pd = meta.Pd
	}
	if opts.Pu == 0 {
		opts.Pu = meta.Pu
	}
	s := &Scheduler{
		M:        m,
		meta:     meta,
		Opts:     opts,
		statHist: metrics.NewHistory[[]float64](meta.D.T),
		latHist:  metrics.NewHistory[[]float64](meta.D.T),
		downAge:  make([]int, len(app.Tiers)),
		lastGood: make([]cluster.Stats, len(app.Tiers)),
		staleFor: make([]int, len(app.Tiers)),
		missing:  make([]bool, len(app.Tiers)),
		predCtx:  NewPredictContext(),

		pdFromModel: pdFromModel,
		puFromModel: puFromModel,
	}
	for _, tc := range app.Tiers {
		minC, maxC := tc.MinCPU, tc.MaxCPU
		if minC <= 0 {
			minC = 0.2
		}
		if maxC <= 0 {
			maxC = 8
		}
		s.minCPU = append(s.minCPU, minC)
		s.maxCPU = append(s.maxCPU, maxC)
	}
	for i := range s.downAge {
		s.downAge[i] = 1 << 30
	}
	s.AttachMetrics(telemetry.NewRegistry())
	return s
}

// AttachMetrics implements telemetry.Attacher: it rebinds the scheduler's
// instruments ("sched.*") onto reg so subsequent decisions are counted
// there. The runner calls it with the per-run registry before the run
// starts; counts recorded on a previously attached registry stay there.
func (s *Scheduler) AttachMetrics(reg *telemetry.Registry) {
	s.reg = reg
	s.mispredictions = reg.Counter("sched.mispredictions")
	s.predictErrors = reg.Counter("sched.predict.errors")
	s.predictSheds = reg.Counter("sched.predict.sheds")
	s.degradedIntervals = reg.Counter("sched.degraded.intervals")
	s.recoveries = reg.Counter("sched.degraded.recoveries")
	s.brownoutIntervals = reg.Counter("sched.brownout.intervals")
	s.candidatesScored = reg.Counter("sched.candidates.scored")
	s.brownoutGauge = reg.Gauge("sched.brownout.level")
	s.degradedGauge = reg.Gauge("sched.degraded")
	s.decideLatMS = reg.Histogram("sched.decide.latency_ms")
	s.predictLatMS = reg.Histogram("sched.predict.latency_ms")
	s.candBatch = reg.Histogram("sched.candidates.batch")
	s.payloadFloats = reg.Gauge("sched.predict.payload_floats")
}

// Metrics returns the registry the scheduler's instruments currently live
// on.
func (s *Scheduler) Metrics() *telemetry.Registry { return s.reg }

// RefreshMeta re-reads the predictor's metadata. A lifecycle manager calls
// it after hot-swapping the served model so the scheduler's filters pick up
// the new calibration: QoSMS/RMSEValid always refresh, and Pd/Pu re-derive
// from the model only when they were model-sourced to begin with (explicit
// SchedulerOptions overrides stay pinned). Dims must not change across a
// swap — the validation gate enforces that before any promotion.
func (s *Scheduler) RefreshMeta() {
	meta := s.M.Meta()
	if meta.D != s.meta.D {
		// A dims change would invalidate the history windows and input
		// tensors; refuse to absorb it (the gate should have rejected the
		// swap) and keep operating on the old calibration.
		return
	}
	s.meta = meta
	if s.pdFromModel {
		s.Opts.Pd = meta.Pd
	}
	if s.puFromModel {
		s.Opts.Pu = meta.Pu
	}
}

// Mispredictions returns the count of QoS violations the model failed to
// predict (the trust-erosion signal of Sec. 4.3).
func (s *Scheduler) Mispredictions() int { return int(s.mispredictions.Value()) }

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

// Decide implements runner.Policy.
func (s *Scheduler) Decide(st runner.State) runner.Decision {
	start := time.Now()
	defer func() {
		s.decideLatMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		s.brownoutGauge.Set(float64(s.brownoutLevel()))
		if s.degraded {
			s.degradedGauge.Set(1)
		} else {
			s.degradedGauge.Set(0)
		}
	}()
	d := s.meta.D
	st = s.imputeStats(st)
	if s.noDownFor > 0 {
		s.noDownFor--
	}

	// Safety mechanism: a QoS violation the model did not predict triggers
	// an immediate upscale of all tiers and erodes trust (Sec. 4.3).
	violated := st.Perc.P99() > s.meta.QoSMS || st.Perc.Drops > 0
	if violated && s.lastPredValid && s.lastPredP99 <= s.meta.QoSMS-s.meta.RMSEValid {
		s.mispredictions.Inc()
		if int(s.mispredictions.Value()) > s.Opts.TrustThreshold {
			s.mistrust++
		}
		s.pushHistory(st, d)
		s.lastPredValid = false
		s.cooldown = s.Opts.VictimWindow
		// Immediately upscale all tiers (Sec. 4.3) so the built-up queues
		// drain before they cascade. The upscale is a steep geometric ramp
		// (doubling, continued through the cool-down while the violation
		// persists) rather than a single jump to the absolute maximum: it
		// reaches max within a few intervals for a real overload, without
		// paying the full worst-case allocation for one noisy interval.
		return runner.Decision{Alloc: s.boosted(st.Alloc), PViol: 1, Brownout: s.brownoutLevel()}
	}

	s.pushHistory(st, d)
	for i := range s.downAge {
		s.downAge[i]++
	}

	if !s.statHist.Full() {
		// Bootstrapping: hold until the history window fills.
		s.lastPredValid = false
		return runner.Decision{Alloc: st.Alloc, Brownout: s.brownoutLevel()}
	}
	if s.cooldown > 0 {
		// Post-emergency cool-down: hold (or keep ramping, if latency is
		// still past QoS) while built-up queues drain and the history window
		// refills with clean state, so the model does not immediately
		// reclaim into the spike.
		s.cooldown--
		s.lastPredValid = false
		if violated {
			return runner.Decision{Alloc: s.boosted(st.Alloc), PViol: 1, Brownout: s.brownoutLevel()}
		}
		return runner.Decision{Alloc: st.Alloc, Brownout: s.brownoutLevel()}
	}

	// The brownout level in force while this decision's candidates were
	// enumerated. Pressure/relief observed below only moves the ladder for
	// the *next* interval, so the recorded level matches the batch actually
	// sent to the model.
	level := s.brownoutLevel()
	if level > BrownoutNone {
		s.brownoutIntervals.Inc()
	}
	cands := s.candidates(st)
	s.candidatesScored.Add(int64(len(cands)))
	s.candBatch.Observe(float64(len(cands)))
	pred, pviol, err := s.predictCandidates(cands, d)
	if err != nil {
		// Model path unavailable: degrade to the conservative built-in
		// policy instead of crashing. Every interval retries the model (the
		// query doubles as the recovery probe — a resilient client's
		// circuit breaker makes the retry cheap while the host stays down).
		// A shed is pressure for the brownout ladder on top of being a
		// degraded interval: the host is alive but refusing work, so the
		// productive response is a smaller batch next interval.
		s.predictErrors.Inc()
		if IsOverload(err) {
			s.predictSheds.Inc()
		}
		s.brownoutPressure()
		dec := s.fallbackDecision(st, violated)
		dec.Brownout = level
		return dec
	}
	s.brownoutObserve()
	if s.degraded {
		// A successful probe ends degraded mode. Re-enter model-driven
		// operation conservatively: suppress reclamation for a victim
		// window so the model decides from refreshed history before any
		// capacity is taken away.
		s.degraded = false
		s.recoveries.Inc()
		s.noDownFor = s.Opts.VictimWindow
	}

	chosen, ok := s.selectCandidate(st, cands, pred, pviol)
	if !ok {
		// No action is predicted safe: scale all tiers up steeply (to max
		// within a few intervals if the danger persists).
		s.lastPredValid = false
		s.cooldown = s.Opts.VictimWindow
		return runner.Decision{Alloc: s.boosted(st.Alloc), PViol: 1, Brownout: level}
	}
	c := cands[chosen]
	if c.kind == kindDown || c.kind == kindDownBatch {
		for i := range c.alloc {
			if c.alloc[i] < st.Alloc[i] {
				s.downAge[i] = 0
			}
		}
	}
	p99 := pred.At(chosen, d.M-1)
	s.lastPredP99 = p99
	s.lastPredValid = true
	return runner.Decision{Alloc: s.biasStale(c.alloc), PredP99MS: p99, PViol: pviol[chosen], Brownout: level}
}

// Degraded reports whether the scheduler is currently running its fallback
// policy because the model path is unavailable.
func (s *Scheduler) Degraded() bool { return s.degraded }

// BrownoutLevel reports the scheduler's current brownout ladder level
// (BrownoutNone, BrownoutTopK, or BrownoutHold).
func (s *Scheduler) BrownoutLevel() int { return s.brownoutLevel() }

func (s *Scheduler) brownoutLevel() int {
	if s.Opts.NoBrownout {
		return BrownoutNone
	}
	return s.brownLevel
}

// brownoutPressure escalates the ladder one level in response to a shed,
// slow, or failed model query. Escalation is immediate: under overload every
// oversized query the scheduler sends makes the overload worse, so the batch
// must shrink before the next interval.
func (s *Scheduler) brownoutPressure() {
	if s.Opts.NoBrownout {
		return
	}
	s.brownGood = 0
	if s.brownLevel < BrownoutHold {
		s.brownLevel++
	}
}

// brownoutObserve processes a successful model query: a slow one (reported
// cost above SlowPredictMS) is pressure just like a failure, a healthy one
// counts toward hysteretic recovery — BrownoutRecover consecutive healthy
// queries step the ladder down one level, so a single lucky query while the
// predictor is still saturated cannot flap the scheduler back into sending
// full-size batches.
func (s *Scheduler) brownoutObserve() {
	if s.Opts.NoBrownout {
		return
	}
	if s.Opts.SlowPredictMS > 0 {
		if cr, ok := s.M.(CostReporter); ok && cr.LastPredictMS() > s.Opts.SlowPredictMS {
			s.brownoutPressure()
			return
		}
	}
	if s.brownLevel == BrownoutNone {
		return
	}
	s.brownGood++
	if s.brownGood >= s.Opts.BrownoutRecover {
		s.brownLevel--
		s.brownGood = 0
	}
}

// imputeStats fills in missing per-tier stats (node-agent dropouts flagged
// by st.StatsOK) with the last good reading, tracking per-tier staleness.
// The CPU limit channel is taken from the in-force allocation, which the
// scheduler knows without the agent.
func (s *Scheduler) imputeStats(st runner.State) runner.State {
	if st.StatsOK == nil {
		for i := range s.staleFor {
			s.staleFor[i] = 0
			s.missing[i] = false
		}
		copy(s.lastGood, st.Stats)
		return st
	}
	for i := range st.Stats {
		if st.StatsOK[i] {
			s.lastGood[i] = st.Stats[i]
			s.staleFor[i] = 0
			s.missing[i] = false
			continue
		}
		s.staleFor[i]++
		s.missing[i] = true
		st.Stats[i] = s.lastGood[i]
		if i < len(st.Alloc) {
			st.Stats[i].CPULimit = st.Alloc[i]
		}
	}
	return st
}

// fallbackDecision is the degraded-mode policy: an AutoScaleCons-shaped
// step scaler that holds or scales up, never down — matching the paper's
// observation that only the conservative autoscaler reliably meets QoS
// without a model. Observed violations still trigger the emergency ramp.
func (s *Scheduler) fallbackDecision(st runner.State, violated bool) runner.Decision {
	s.degraded = true
	s.degradedIntervals.Inc()
	s.lastPredValid = false
	if violated {
		return runner.Decision{Alloc: s.biasStale(s.boosted(st.Alloc)), PViol: 1, Degraded: true}
	}
	alloc := append([]float64(nil), st.Alloc...)
	for i := range alloc {
		util := st.Stats[i].CPUUsage / math.Max(alloc[i], 1e-9)
		switch {
		case util >= 0.5:
			alloc[i] = s.clampTier(i, math.Max(alloc[i]*1.3, alloc[i]+0.2))
		case util >= 0.3:
			alloc[i] = s.clampTier(i, math.Max(alloc[i]*1.1, alloc[i]+0.1))
		}
	}
	return runner.Decision{Alloc: s.biasStale(alloc), Degraded: true}
}

// biasStale upscales tiers whose stats have been missing beyond the
// staleness cap: hold-last-value is only trustworthy briefly, after which
// the safe assumption is that the silent tier needs more capacity, not
// less. The slice is modified in place (every caller owns its slice).
func (s *Scheduler) biasStale(alloc []float64) []float64 {
	for i := range alloc {
		if s.staleFor[i] > s.Opts.StaleCap {
			alloc[i] = s.clampTier(i, math.Max(alloc[i]*1.1, alloc[i]+0.2))
		}
	}
	return alloc
}

// clampTier quantises an allocation to the 0.1-core grid within the tier's
// bounds.
func (s *Scheduler) clampTier(i int, v float64) float64 {
	v = math.Round(v*10) / 10
	if v < s.minCPU[i] {
		v = s.minCPU[i]
	}
	if v > s.maxCPU[i] {
		v = s.maxCPU[i]
	}
	return v
}

// pushHistory records the interval into the model-input windows through
// the same dataset.PushWindow the training recorder uses, with the same
// 2.5×QoS latency clip — deployment inputs stay on the training
// distribution by construction.
func (s *Scheduler) pushHistory(st runner.State, d nn.Dims) {
	dataset.PushWindow(s.statHist, s.latHist, d, st.Stats, st.Perc, 2.5*s.meta.QoSMS)
}

// ultraSafe reports whether the current and all remembered intervals ran
// below half the QoS target.
func (s *Scheduler) ultraSafe(st runner.State) bool {
	bound := 0.5 * s.meta.QoSMS
	if st.Perc.P99() >= bound {
		return false
	}
	d := s.meta.D
	for i := 0; i < s.latHist.Len(); i++ {
		if s.latHist.At(i)[d.M-1] >= bound {
			return false
		}
	}
	return true
}

// boosted returns the emergency-ramp allocation: every tier doubled (plus
// a constant so tiers at the floor move), quantised to the 0.1-core grid
// and clamped to the tier bounds like every other allocation the
// scheduler emits — an off-grid emergency ramp would be unenforceable on
// the cgroup quota and would leak unround values into traces and CSVs.
func (s *Scheduler) boosted(cur []float64) []float64 {
	out := make([]float64, len(cur))
	for i := range out {
		out[i] = s.clampTier(i, cur[i]*2+0.5)
	}
	return out
}

// candidates enumerates the pruned action set of Table 1, further shrunk by
// the brownout ladder: at BrownoutTopK single-tier operations are budgeted to
// the most relevant tiers by utilization and the batch-reclaim variants
// collapse to one; at BrownoutHold only the hold candidate survives — a
// batch-of-one query that doubles as the recovery probe.
func (s *Scheduler) candidates(st runner.State) []candidate {
	n := len(st.Alloc)
	level := s.brownoutLevel()
	var out []candidate
	add := func(alloc []float64, kind candKind, tier int) {
		total := 0.0
		for _, v := range alloc {
			total += v
		}
		out = append(out, candidate{alloc: alloc, total: total, kind: kind, tier: tier})
	}

	// Hold.
	add(append([]float64(nil), st.Alloc...), kindHold, -1)
	if level >= BrownoutHold {
		return out
	}

	// Utilization order, least-utilized first. Shared by the batch-reclaim
	// variants and the brownout tier budgets: scale-downs matter most on the
	// coldest tiers, scale-ups on the hottest.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ua := st.Stats[order[a]].CPUUsage / math.Max(st.Alloc[order[a]], 1e-9)
		ub := st.Stats[order[b]].CPUUsage / math.Max(st.Alloc[order[b]], 1e-9)
		return ua < ub
	})

	allowDown := func(int) bool { return true }
	allowUp := func(int) bool { return true }
	batchKs := append(append([]int(nil), s.Opts.BatchKs...), n-1)
	// Two batch variants per k: a fine −0.2-core step and a −10%
	// multiplicative step (the latter descends quickly from large
	// overprovisioned allocations).
	batchRatios := []float64{0, 0.9, 0.7}
	if level == BrownoutTopK {
		k := s.Opts.BrownoutTopK
		if k > n {
			k = n
		}
		downSet := make(map[int]bool, k)
		upSet := make(map[int]bool, k)
		for _, i := range order[:k] {
			downSet[i] = true
		}
		for _, i := range order[n-k:] {
			upSet[i] = true
		}
		allowDown = func(i int) bool { return downSet[i] }
		allowUp = func(i int) bool { return upSet[i] }
		batchKs = batchKs[:1]
		batchRatios = batchRatios[:1]
	}

	downSteps := []float64{-0.2, -0.6, -1.0}
	downRatios := []float64{0.9, 0.7}
	upSteps := []float64{0.2, 0.6, 1.0}
	upRatios := []float64{1.1, 1.3}

	canShrink := func(i int, next float64) bool {
		if next >= st.Alloc[i] {
			return false
		}
		// No fresh stats from this tier's agent: never reclaim blind.
		if s.missing[i] {
			return false
		}
		// Utilization guard against queue build-up.
		return st.Stats[i].CPUUsage/next <= s.Opts.UtilCap
	}

	// Scale Down: single tiers.
	for i := 0; i < n; i++ {
		if !allowDown(i) {
			continue
		}
		seen := map[float64]bool{}
		try := func(next float64) {
			next = s.clampTier(i, next)
			if seen[next] || !canShrink(i, next) {
				return
			}
			seen[next] = true
			alloc := append([]float64(nil), st.Alloc...)
			alloc[i] = next
			add(alloc, kindDown, i)
		}
		for _, d := range downSteps {
			try(st.Alloc[i] + d)
		}
		for _, r := range downRatios {
			try(st.Alloc[i] * r)
		}
	}

	// Scale Down Batch: the k least-utilized tiers, each −0.2 cores.
	for _, k := range batchKs {
		if k >= n {
			k = n - 1
		}
		if k < 2 {
			continue
		}
		for _, ratio := range batchRatios {
			alloc := append([]float64(nil), st.Alloc...)
			changed := false
			for _, i := range order[:k] {
				var next float64
				if ratio > 0 {
					next = s.clampTier(i, alloc[i]*ratio)
				} else {
					next = s.clampTier(i, alloc[i]-0.2)
				}
				if canShrink(i, next) {
					alloc[i] = next
					changed = true
				}
			}
			if changed {
				add(alloc, kindDownBatch, -1)
			}
		}
	}

	// Scale Up: single tiers.
	for i := 0; i < n; i++ {
		if !allowUp(i) {
			continue
		}
		seen := map[float64]bool{}
		try := func(next float64) {
			next = s.clampTier(i, next)
			if seen[next] || next <= st.Alloc[i] {
				return
			}
			seen[next] = true
			alloc := append([]float64(nil), st.Alloc...)
			alloc[i] = next
			add(alloc, kindUp, i)
		}
		for _, d := range upSteps {
			try(st.Alloc[i] + d)
		}
		for _, r := range upRatios {
			try(st.Alloc[i] * r)
		}
	}

	// Scale Up All.
	{
		alloc := make([]float64, n)
		for i := range alloc {
			alloc[i] = s.clampTier(i, math.Max(st.Alloc[i]*1.3, st.Alloc[i]+0.2))
		}
		add(alloc, kindUpAll, -1)
	}

	// Scale Up Victim: re-inflate tiers scaled down in the last t cycles.
	{
		alloc := append([]float64(nil), st.Alloc...)
		changed := false
		for i := 0; i < n; i++ {
			if s.downAge[i] <= s.Opts.VictimWindow {
				next := s.clampTier(i, math.Max(alloc[i]*1.3, alloc[i]+0.2))
				if next > alloc[i] {
					alloc[i] = next
					changed = true
				}
			}
		}
		if changed {
			add(alloc, kindUpVictim, -1)
		}
	}

	return out
}

// predictCandidates evaluates all candidates in one shared-history model
// query: the window the candidates share is assembled once and wrapped in
// reusable batch-1 view headers, and only the per-candidate allocations
// form a real batch. A shared-aware predictor (the hybrid model, the RPC
// client) never sees — or ships — a repeated window row; anything else is
// bridged through PredictSharedAuto's expansion, preserving the old
// behaviour exactly. The payload gauge records what was actually sent.
func (s *Scheduler) predictCandidates(cands []candidate, d nn.Dims) (*tensor.Dense, []float64, error) {
	b := len(cands)
	s.rhRow, s.lhRow = dataset.WindowInputsInto(s.rhRow, s.lhRow, d, s.statHist, s.latHist)
	s.winRH = tensor.View(s.winRH, s.rhRow, 1, d.F, d.N, d.T)
	s.winLH = tensor.View(s.winLH, s.lhRow, 1, d.T, d.M)
	s.candRC = tensor.Ensure(s.candRC, b, d.N)
	for i := 0; i < b; i++ {
		copy(s.candRC.Data[i*d.N:(i+1)*d.N], cands[i].alloc)
	}
	in := nn.SharedInputs{RH: s.winRH, LH: s.winLH, RC: s.candRC}
	winFloats := len(s.rhRow) + len(s.lhRow)
	if _, shared := s.M.(SharedPredictor); shared {
		s.payloadFloats.Set(float64(winFloats + b*d.N))
	} else {
		s.payloadFloats.Set(float64(b * (winFloats + d.N)))
	}
	start := time.Now()
	pred, pviol, err := PredictSharedAuto(s.M, s.predCtx, in)
	s.predictLatMS.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	if err == nil {
		err = checkPredictions(pred, pviol, d.M)
	}
	return pred, pviol, err
}

// errGarbagePrediction marks a model answer the filters cannot compare.
var errGarbagePrediction = errors.New("core: model returned a non-finite p99 or an invalid violation probability")

// checkPredictions refuses a model answer carrying a NaN or infinite p99 or
// a NaN, infinite or negative violation probability. Every float
// comparison against NaN is false, so selectCandidate would otherwise
// accept a reclaim whose prediction is garbage; as an error the answer
// takes the predictor-failure path instead (degraded fallback, brownout
// pressure), which never scales down.
func checkPredictions(pred *tensor.Dense, pviol []float64, m int) error {
	for i, pv := range pviol {
		p99 := pred.Data[i*m+m-1] // not At: its variadic index escapes, one allocation per call
		if math.IsNaN(p99) || math.IsInf(p99, 0) || !(pv >= 0) || math.IsInf(pv, 1) {
			return errGarbagePrediction
		}
	}
	return nil
}

// selectCandidate applies the filters of Sec. 4.3 and returns the index of
// the acceptable candidate using the least total CPU.
func (s *Scheduler) selectCandidate(st runner.State, cands []candidate, pred *tensor.Dense, pviol []float64) (int, bool) {
	d := s.meta.D
	pd, pu := s.Opts.Pd, s.Opts.Pu
	if s.mistrust > 0 {
		// Reduced trust: be conservative about reclaiming.
		pd = 0
	}
	if s.ultraSafe(st) {
		// The classifier claims danger while every recent interval sat far
		// below QoS — the observations win (the inverse of the trust
		// mechanism: consistent over-prediction must not freeze the
		// scheduler at maximum allocation). Latency and utilization filters
		// still gate every action.
		pd, pu = 1, 1
	}
	// While the tail is already past the target, disable reclamations so
	// the system recovers as fast as possible; likewise right after a
	// degraded-mode recovery, while the model re-earns its authority.
	hot := st.Perc.P99() > s.meta.QoSMS || s.noDownFor > 0
	// Predicted-latency acceptance bound (Sec. 4.3): QoS minus the
	// validation error. Reclamations additionally keep a minimum headroom of
	// 30% of QoS — the model's smooth response surface understates how sharp
	// the queueing cliff is, so stepping down is only allowed while clearly
	// inside the safe region; holding or scaling up near the boundary stays
	// acceptable.
	latBound := s.meta.QoSMS - s.meta.RMSEValid
	downBound := latBound
	if downCap := 0.7 * s.meta.QoSMS; downBound > downCap {
		downBound = downCap
	}

	best := -1
	holdIdx := -1
	for i, c := range cands {
		if c.kind == kindHold {
			holdIdx = i
		}
	}
	holdRisky := holdIdx >= 0 && pviol[holdIdx] >= pu

	for i, c := range cands {
		p99 := pred.At(i, d.M-1)
		switch c.kind {
		case kindDown, kindDownBatch:
			if hot || holdRisky || pviol[i] >= pd || p99 > downBound {
				continue
			}
		case kindHold:
			if pviol[i] >= pu || p99 > latBound {
				continue
			}
		default:
			// Scale-up variants are gated by the violation probability only:
			// the latency prediction is dominated by the current state, and
			// rejecting the very actions that add capacity would force the
			// max-allocation fallback on every near-boundary drift.
			if pviol[i] >= pu {
				continue
			}
		}
		if best < 0 || c.total < cands[best].total {
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}
