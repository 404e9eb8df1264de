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

// Config tunes the lifecycle manager.
type Config struct {
	// Gate configures the validation gate (its Holdout is required unless
	// Blind).
	Gate GateConfig
	// Retrain produces candidates; required.
	Retrain RetrainFunc
	// Registry, when non-nil, mirrors promotions and rollbacks to disk:
	// promoted hybrids are Put and marked CURRENT, rollbacks move the
	// marker back. Non-hybrid predictors (test fakes, remote clients) skip
	// persistence.
	Registry *Registry

	// Drift detection: an EWMA over per-interval feedback (1 when the
	// interval violated QoS or the scheduler logged a misprediction, else
	// 0) crossing DriftThreshold triggers a retrain, once MinSamples fresh
	// windows have been collected and any cooldown has elapsed.
	DriftThreshold float64 // default 0.15
	EWMAAlpha      float64 // default 0.05
	MinSamples     int     // default 100
	Cooldown       int     // intervals between retrain attempts (default 45)

	// ShadowIntervals is how long a gated candidate shadow-scores live
	// traffic before promotion (default 15; negative promotes immediately).
	ShadowIntervals int
	// Probation window after a promotion: ProbationIntervals long, with the
	// first ProbationGrace intervals uncounted (post-swap queue drain), and
	// BreachTolerance violated intervals triggering automatic rollback.
	ProbationIntervals int // default 40
	ProbationGrace     int // default 5
	BreachTolerance    int // default 8

	// K is the violation lookahead of the fresh-window recorder (default 5).
	K int
	// MaxRetrains caps retrain attempts per run (0 = unlimited).
	MaxRetrains int

	// Blind disables the gate, shadow scoring, and probation: every retrain
	// is installed unconditionally. This is the unguarded-swap baseline the
	// drift experiment measures the gate against — never use it for real.
	Blind bool
}

func (c Config) withDefaults() Config {
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.15
	}
	if c.EWMAAlpha == 0 {
		c.EWMAAlpha = 0.05
	}
	if c.MinSamples == 0 {
		c.MinSamples = 100
	}
	if c.Cooldown == 0 {
		c.Cooldown = 45
	}
	if c.ShadowIntervals == 0 {
		c.ShadowIntervals = 15
	}
	if c.ProbationIntervals == 0 {
		c.ProbationIntervals = 40
	}
	if c.ProbationGrace == 0 {
		c.ProbationGrace = 5
	}
	if c.BreachTolerance == 0 {
		c.BreachTolerance = 8
	}
	if c.K == 0 {
		c.K = 5
	}
	return c
}

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
	candSamples int
	probLeft    int
	probAge     int
	breaches    int
	lastMispred int64
	regVersions map[int]int // live version → registry version

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
// around it, and the manager runs the update loop. With cfg.Registry set
// and a hybrid model, version 1 is persisted and marked CURRENT.
func NewManager(app *apps.App, model core.Predictor, sopts core.SchedulerOptions, cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Retrain == nil {
		return nil, fmt.Errorf("lifecycle: Config.Retrain is required")
	}
	meta := model.Meta()
	m := &Manager{
		cfg:         cfg,
		live:        NewLive(model, 1),
		qos:         meta.QoSMS,
		regVersions: map[int]int{},
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
	if cfg.Registry != nil {
		if hm, ok := model.(*core.HybridModel); ok {
			man, err := cfg.Registry.Put(hm, Manifest{Note: "initial"})
			if err != nil {
				return nil, err
			}
			if err := cfg.Registry.SetCurrent(man.Version); err != nil {
				return nil, err
			}
			m.regVersions[1] = man.Version
		}
	}
	return m, nil
}

func (m *Manager) resetFresh(meta core.ModelMeta) {
	m.fresh = dataset.New(meta.D, m.cfg.K)
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
	m.ewma = m.cfg.EWMAAlpha*sig + (1-m.cfg.EWMAAlpha)*m.ewma

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
		if m.cfg.MaxRetrains > 0 && m.attempts >= m.cfg.MaxRetrains {
			return
		}
		if m.ewma < m.cfg.DriftThreshold || m.fresh.Len() < m.cfg.MinSamples {
			return
		}
		m.attempts++
		m.retrains.Inc()
		fresh := m.fresh
		m.resetFresh(m.live.Meta())
		cand, err := m.cfg.Retrain(m.live.Current(), fresh, m.attempts)
		if err != nil || cand == nil {
			m.retrainErrors.Inc()
			m.cooldown = m.cfg.Cooldown
			return
		}
		if m.cfg.Blind {
			m.promote(cand, fresh.Len())
			m.cooldown = m.cfg.Cooldown
			return
		}
		if _, err := m.gate.Validate(m.live.Current(), cand); err != nil {
			m.gateRejected.Inc()
			m.cooldown = m.cfg.Cooldown
			return
		}
		m.gateAccepted.Inc()
		if m.cfg.ShadowIntervals < 0 {
			m.promote(cand, fresh.Len())
			m.beginProbation()
			return
		}
		m.candSamples = fresh.Len()
		m.live.Shadow(cand, m.shadowHist)
		m.state = StateShadow
		m.shadowLeft = m.cfg.ShadowIntervals

	case StateShadow:
		m.shadowLeft--
		if m.shadowLeft > 0 {
			return
		}
		cand, disqualified, _ := m.live.SettleShadow(0)
		if disqualified != nil {
			m.shadowRejected.Inc()
			m.state = StateLive
			m.cooldown = m.cfg.Cooldown
			return
		}
		m.promote(cand, m.candSamples)
		m.beginProbation()

	case StateProbation:
		m.probAge++
		if m.probAge > m.cfg.ProbationGrace && violated {
			m.breaches++
		}
		if m.breaches >= m.cfg.BreachTolerance {
			m.rollback()
			return
		}
		m.probLeft--
		if m.probLeft <= 0 {
			m.state = StateLive
			m.cooldown = m.cfg.Cooldown
		}
	}
}

func (m *Manager) beginProbation() {
	m.state = StateProbation
	m.probLeft = m.cfg.ProbationIntervals
	m.probAge = 0
	m.breaches = 0
}

// promote installs cand as the live model: one atomic swap (in-flight
// predictions finish on the old model, which Live keeps as the rollback
// target), scheduler thresholds refreshed, and — for hybrid models with a
// registry — the new version persisted and marked CURRENT.
func (m *Manager) promote(cand core.Predictor, samples int) {
	v := m.live.Install(cand)
	m.promotions.Inc()
	m.sched.RefreshMeta()
	m.ewma = 0
	if m.cfg.Registry != nil {
		if hm, ok := cand.(*core.HybridModel); ok {
			man, err := m.cfg.Registry.Put(hm, Manifest{
				Note:    fmt.Sprintf("drift-retrain #%d", m.attempts),
				Samples: samples,
			})
			if err == nil {
				m.regVersions[v] = man.Version
				m.cfg.Registry.SetCurrent(man.Version)
			}
		}
	}
}

// rollback restores the previous version after a probation breach.
func (m *Manager) rollback() {
	m.state = StateLive
	m.cooldown = 2 * m.cfg.Cooldown
	v, ok := m.live.Rollback()
	if !ok {
		return
	}
	m.rollbacks.Inc()
	m.sched.RefreshMeta()
	m.ewma = 0
	if m.cfg.Registry != nil {
		if rv, ok := m.regVersions[v]; ok {
			m.cfg.Registry.SetCurrent(rv)
		}
	}
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
