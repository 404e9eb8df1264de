package lifecycle

import (
	"fmt"

	"sinan/internal/apps"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/runner"
	"sinan/internal/telemetry"
)

// State is the lifecycle state machine's position: candidates move
// live → (retrain + gate) → shadow → live-with-probation, and a probation
// breach rolls back to the previous version (DESIGN.md §12).
type State int

// Lifecycle states.
const (
	StateLive      State = iota // serving; drift detector armed
	StateShadow                 // gated candidate scoring live traffic on the side
	StateProbation              // candidate promoted; SLO breach triggers rollback
)

func (s State) String() string {
	switch s {
	case StateLive:
		return "live"
	case StateShadow:
		return "shadow"
	case StateProbation:
		return "probation"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// RetrainFunc produces a candidate predictor from the live one and a
// freshly collected window dataset. attempt is 1-based across the run.
// Returning an error (or nil) counts as a failed retrain: the manager
// stays on the live model and backs off.
type RetrainFunc func(live core.Predictor, fresh *dataset.Dataset, attempt int) (core.Predictor, error)

// DefaultRetrain adapts core.HybridModel.Retrain — fine-tune the CNN at
// LR/100 on the fresh windows, refit the Boosted Trees — as a RetrainFunc.
// The seed is offset by the attempt number so repeated retrains within one
// run stay deterministic but distinct.
func DefaultRetrain(opts core.RetrainOptions) RetrainFunc {
	return func(live core.Predictor, fresh *dataset.Dataset, attempt int) (core.Predictor, error) {
		hm, ok := live.(*core.HybridModel)
		if !ok {
			return nil, fmt.Errorf("lifecycle: live predictor %T is not a retrainable hybrid", live)
		}
		o := opts
		o.Seed += int64(attempt)
		return hm.Retrain(fresh, o), nil
	}
}

// Config tunes the lifecycle manager. Everything else about the lifecycle
// is fixed by the constants below.
type Config struct {
	// Gate configures the validation gate (its Holdout is required unless
	// Blind).
	Gate GateConfig
	// Retrain produces candidates; required.
	Retrain RetrainFunc
	// MinSamples is how many fresh windows must have been collected before
	// a drift trigger retrains.
	MinSamples int

	// Blind disables the gate, shadow scoring, and probation: every retrain
	// is installed unconditionally. This is the unguarded-swap baseline the
	// drift experiment measures the gate against — never use it for real.
	Blind bool
}

// The lifecycle's fixed tuning (DESIGN.md §12). Drift detection is an EWMA
// over per-interval feedback (1 when the interval violated QoS or the
// scheduler logged a misprediction, else 0); crossing driftThreshold
// triggers a retrain once MinSamples fresh windows have been collected and
// the cooldown has elapsed. A gated candidate shadow-scores live traffic for
// shadowIntervals before promotion, then serves a probation of
// probationIntervals whose first probationGrace intervals are uncounted
// (post-swap queue drain); breachTolerance violated intervals roll it back.
const (
	driftThreshold     = 0.15
	ewmaAlpha          = 0.25
	retrainCooldown    = 10 // intervals between retrain attempts
	shadowIntervals    = 8
	probationIntervals = 30
	probationGrace     = 4
	breachTolerance    = 2
	freshLookahead     = 5 // violation lookahead K of the fresh-window recorder
)

// Manager is the drift-driven model lifecycle controller, packaged as a
// runner.Policy wrapping the Sinan scheduler. Each interval it forwards the
// decision to the scheduler, harvests the scheduler's violation and
// misprediction feedback into a drift EWMA, records fresh training windows,
// and advances the candidate → shadow → live → rolled-back state machine.
// All swaps go through a Live predictor (atomic pointer), which also keeps
// the rollback stack and scores the shadow candidate, so the prediction path
// never observes an unavailable model.
type Manager struct {
	cfg   Config
	live  *Live
	sched *core.Scheduler
	gate  *Gate
	qos   float64

	fresh *dataset.Dataset
	rec   *dataset.Recorder

	state       State
	ewma        float64
	cooldown    int
	attempts    int
	shadowLeft  int
	probLeft    int
	probAge     int
	breaches    int
	lastMispred int64

	// Telemetry ("lifecycle.*"); deterministic — everything advances on the
	// run's simulated intervals.
	reg            *telemetry.Registry
	retrains       *telemetry.Counter
	retrainErrors  *telemetry.Counter
	gateAccepted   *telemetry.Counter
	gateRejected   *telemetry.Counter
	shadowRejected *telemetry.Counter
	promotions     *telemetry.Counter
	rollbacks      *telemetry.Counter
	stateGauge     *telemetry.Gauge
	versionGauge   *telemetry.Gauge
	driftGauge     *telemetry.Gauge
	shadowHist     *telemetry.Histogram
}

// NewManager builds the lifecycle-managed Sinan policy: model becomes
// version 1 of a hot-swappable Live predictor, a fresh scheduler is built
// around it, and the manager runs the update loop.
func NewManager(app *apps.App, model core.Predictor, sopts core.SchedulerOptions, cfg Config) (*Manager, error) {
	if cfg.Retrain == nil {
		return nil, fmt.Errorf("lifecycle: Config.Retrain is required")
	}
	meta := model.Meta()
	m := &Manager{
		cfg:  cfg,
		live: NewLive(model, 1),
		qos:  meta.QoSMS,
	}
	if !cfg.Blind {
		g, err := NewGate(cfg.Gate)
		if err != nil {
			return nil, err
		}
		m.gate = g
	}
	m.sched = core.NewScheduler(app, m.live, sopts)
	m.resetFresh(meta)
	m.AttachMetrics(telemetry.NewRegistry())
	return m, nil
}

func (m *Manager) resetFresh(meta core.ModelMeta) {
	m.fresh = dataset.New(meta.D, freshLookahead)
	m.rec = dataset.NewRecorder(m.fresh, m.qos)
}

// AttachMetrics implements telemetry.Attacher: the manager's "lifecycle.*"
// instruments and the wrapped scheduler's "sched.*" land on reg.
func (m *Manager) AttachMetrics(reg *telemetry.Registry) {
	m.reg = reg
	m.retrains = reg.Counter("lifecycle.retrains")
	m.retrainErrors = reg.Counter("lifecycle.retrain.errors")
	m.gateAccepted = reg.Counter("lifecycle.gate.accepted")
	m.gateRejected = reg.Counter("lifecycle.gate.rejected")
	m.shadowRejected = reg.Counter("lifecycle.shadow.rejected")
	m.promotions = reg.Counter("lifecycle.promotions")
	m.rollbacks = reg.Counter("lifecycle.rollbacks")
	m.stateGauge = reg.Gauge("lifecycle.state")
	m.versionGauge = reg.Gauge("lifecycle.version")
	m.driftGauge = reg.Gauge("lifecycle.drift.ewma")
	m.shadowHist = reg.Histogram("lifecycle.shadow.disagreement")
	m.sched.AttachMetrics(reg)
	m.versionGauge.Set(float64(m.live.Version()))
}

// Name implements runner.Policy.
func (m *Manager) Name() string {
	if m.cfg.Blind {
		return "Sinan+blindswap"
	}
	return "Sinan+lifecycle"
}

// Decide implements runner.Policy: the scheduler decides, the manager
// learns. Retraining, gating, and swapping all happen inside the decision
// interval on the run's own goroutine, so the loop is deterministic.
func (m *Manager) Decide(st runner.State) runner.Decision {
	dec := m.sched.Decide(st)

	violated := st.Perc.P99() > m.qos || st.Perc.Drops > 0
	mis := m.sched.Mispredictions()
	sig := 0.0
	if violated || int64(mis) > m.lastMispred {
		sig = 1
	}
	m.lastMispred = int64(mis)
	m.ewma = ewmaAlpha*sig + (1-ewmaAlpha)*m.ewma

	m.rec.Observe(st.Stats, st.Perc, dec.Alloc)
	m.step(violated)

	m.driftGauge.Set(m.ewma)
	m.stateGauge.Set(float64(m.state))
	m.versionGauge.Set(float64(m.live.Version()))
	return dec
}

// step advances the lifecycle state machine by one interval.
func (m *Manager) step(violated bool) {
	switch m.state {
	case StateLive:
		if m.cooldown > 0 {
			m.cooldown--
			return
		}
		if m.ewma < driftThreshold || m.fresh.Len() < m.cfg.MinSamples {
			return
		}
		m.attempts++
		m.retrains.Inc()
		fresh := m.fresh
		m.resetFresh(m.live.Meta())
		cand, err := m.cfg.Retrain(m.live.Current(), fresh, m.attempts)
		if err != nil || cand == nil {
			m.retrainErrors.Inc()
			m.cooldown = retrainCooldown
			return
		}
		if m.cfg.Blind {
			m.promote(cand)
			m.cooldown = retrainCooldown
			return
		}
		if _, err := m.gate.Validate(m.live.Current(), cand); err != nil {
			m.gateRejected.Inc()
			m.cooldown = retrainCooldown
			return
		}
		m.gateAccepted.Inc()
		m.live.Shadow(cand, m.shadowHist)
		m.state = StateShadow
		m.shadowLeft = shadowIntervals

	case StateShadow:
		m.shadowLeft--
		if m.shadowLeft > 0 {
			return
		}
		cand, disqualified, _ := m.live.SettleShadow(0)
		if disqualified != nil {
			m.shadowRejected.Inc()
			m.state = StateLive
			m.cooldown = retrainCooldown
			return
		}
		m.promote(cand)
		m.beginProbation()

	case StateProbation:
		m.probAge++
		if m.probAge > probationGrace && violated {
			m.breaches++
		}
		if m.breaches >= breachTolerance {
			m.rollback()
			return
		}
		m.probLeft--
		if m.probLeft <= 0 {
			m.state = StateLive
			m.cooldown = retrainCooldown
		}
	}
}

func (m *Manager) beginProbation() {
	m.state = StateProbation
	m.probLeft = probationIntervals
	m.probAge = 0
	m.breaches = 0
}

// promote installs cand as the live model: one atomic swap (in-flight
// predictions finish on the old model, which Live keeps as the rollback
// target) and the scheduler's thresholds refreshed.
func (m *Manager) promote(cand core.Predictor) {
	m.live.Install(cand)
	m.promotions.Inc()
	m.sched.RefreshMeta()
	m.ewma = 0
}

// rollback restores the previous version after a probation breach.
func (m *Manager) rollback() {
	m.state = StateLive
	m.cooldown = 2 * retrainCooldown
	if _, ok := m.live.Rollback(); !ok {
		return
	}
	m.rollbacks.Inc()
	m.sched.RefreshMeta()
	m.ewma = 0
}

// Scheduler exposes the wrapped Sinan scheduler (trust counters, degraded
// state, predict errors).
func (m *Manager) Scheduler() *core.Scheduler { return m.sched }

// Live exposes the hot-swappable predictor.
func (m *Manager) Live() *Live { return m.live }

// State returns the lifecycle state machine's position.
func (m *Manager) State() State { return m.state }

// Version returns the live model version.
func (m *Manager) Version() int { return m.live.Version() }

// Retrains returns the number of retrain attempts triggered.
func (m *Manager) Retrains() int { return int(m.retrains.Value()) }

// GateAccepted returns the number of candidates the validation gate passed.
func (m *Manager) GateAccepted() int { return int(m.gateAccepted.Value()) }

// GateRejected returns the number of candidates the validation gate refused.
func (m *Manager) GateRejected() int { return int(m.gateRejected.Value()) }

// ShadowRejected returns the number of candidates disqualified while
// shadow-scoring.
func (m *Manager) ShadowRejected() int { return int(m.shadowRejected.Value()) }

// Promotions returns the number of candidates promoted to live.
func (m *Manager) Promotions() int { return int(m.promotions.Value()) }

// Rollbacks returns the number of automatic rollbacks.
func (m *Manager) Rollbacks() int { return int(m.rollbacks.Value()) }
