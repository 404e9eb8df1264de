package lifecycle

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"sinan/internal/core"
	"sinan/internal/nn"
	"sinan/internal/telemetry"
	"sinan/internal/tensor"
)

// historyDepth bounds the rollback stack: how many displaced models a Live
// retains. Beyond it the oldest falls off.
const historyDepth = 4

// Live is the one owner of "which model is served, what did it displace,
// and who is auditioning": an atomic pointer to the current model, a
// bounded stack of the models it displaced, and an optional shadow tap.
// The in-process lifecycle Manager and the prediction service both serve
// through it. Swapping is a single pointer store, so there is never an
// instant at which a predict call can fail because of a swap — zero
// predictor unavailability across promotions and rollbacks, by
// construction. Live implements core.Predictor, core.SharedPredictor and
// core.CostReporter; predictions never take the mutex.
//
// Two numbers describe the served model. The identity version names the
// model itself: Install assigns the next unused one and Rollback restores
// the displaced model's. The generation counts served-model changes: 1 at
// birth, +1 per Install or Rollback, never going back — it is what the
// prediction service reports as Version on the wire.
type Live struct {
	cur    atomic.Pointer[liveSlot]
	shadow atomic.Pointer[shadowTap]

	mu          sync.Mutex  // serializes Install, Rollback and shadow changes
	history     []*liveSlot // displaced models, newest last
	nextVersion int
	generation  atomic.Int64
}

type liveSlot struct {
	p       core.Predictor
	version int
}

// NewLive wraps p as the initial live model with the given identity version.
func NewLive(p core.Predictor, version int) *Live {
	l := &Live{nextVersion: version + 1}
	l.cur.Store(&liveSlot{p: p, version: version})
	l.generation.Store(1)
	return l
}

// Current returns the live predictor.
func (l *Live) Current() core.Predictor { return l.cur.Load().p }

// Version returns the identity version of the live model.
func (l *Live) Version() int { return l.cur.Load().version }

// Generation returns how many models have been served so far, counting the
// first and every Install and Rollback since.
func (l *Live) Generation() int { return int(l.generation.Load()) }

// Depth returns how many rollbacks the history currently allows.
func (l *Live) Depth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.history)
}

// Install atomically makes p the live model under a fresh identity version,
// which it returns. The displaced model is retained as the next rollback
// target. In-flight predictions finish on the model they loaded.
func (l *Live) Install(p core.Predictor) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := l.nextVersion
	l.nextVersion++
	l.history = append(l.history, l.cur.Swap(&liveSlot{p: p, version: v}))
	if over := len(l.history) - historyDepth; over > 0 {
		l.history = append(l.history[:0], l.history[over:]...)
	}
	l.generation.Add(1)
	return v
}

// Rollback restores the most recently displaced model and returns its
// identity version. A candidate still in shadow is discarded first — a
// rollback is an override, and promoting a pending candidate moments after
// it would defeat the point. With no history it reports false and the
// served model stays as it is.
func (l *Live) Rollback() (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.shadow.Store(nil)
	n := len(l.history)
	if n == 0 {
		return 0, false
	}
	prev := l.history[n-1]
	l.history = l.history[:n-1]
	l.cur.Store(prev)
	l.generation.Add(1)
	return prev.version, true
}

// Meta implements core.Predictor.
func (l *Live) Meta() core.ModelMeta { return l.cur.Load().p.Meta() }

// LastPredictMS implements core.CostReporter by delegating to the live
// model when it reports costs (remote predictors do; in-process models are
// effectively free).
func (l *Live) LastPredictMS() float64 {
	if cr, ok := l.cur.Load().p.(core.CostReporter); ok {
		return cr.LastPredictMS()
	}
	return 0
}

// PredictBatch implements core.Predictor: the live model answers, and while
// a candidate is in shadow it scores the same inputs on the side — its
// disagreement recorded, its answer discarded. A shadow candidate can never
// affect the caller's answer or the call's availability: candidate errors
// are noted in the tap, not returned.
func (l *Live) PredictBatch(ctx *core.PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	slot := l.cur.Load()
	pred, pviol, err := slot.p.PredictBatch(ctx, in)
	if err != nil {
		return pred, pviol, err
	}
	if tap := l.shadow.Load(); tap != nil {
		tap.observe(pred, func(c core.Predictor, ctx *core.PredictContext) (*tensor.Dense, []float64, error) {
			return c.PredictBatch(ctx, in)
		})
	}
	return pred, pviol, nil
}

// PredictShared implements core.SharedPredictor: the shared-history batch
// is routed through the live model's own shared path when it has one
// (expanding otherwise, via PredictSharedAuto), so a swap from a
// shared-capable model to a plain one — or back — never changes what the
// scheduler can call. A shadow candidate scores the same shared batch on
// its best path, mirroring PredictBatch's discipline.
func (l *Live) PredictShared(ctx *core.PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	slot := l.cur.Load()
	pred, pviol, err := core.PredictSharedAuto(slot.p, ctx, in)
	if err != nil {
		return pred, pviol, err
	}
	if tap := l.shadow.Load(); tap != nil {
		tap.observe(pred, func(c core.Predictor, ctx *core.PredictContext) (*tensor.Dense, []float64, error) {
			return core.PredictSharedAuto(c, ctx, in)
		})
	}
	return pred, pviol, nil
}

// Shadow parks cand as the auditioning candidate: from now on every live
// predict also runs on it, scored by a fresh tap. A candidate already in
// shadow is replaced — last write wins, and the displaced one simply never
// promotes. hist, when non-nil, receives the per-row p99 disagreement.
func (l *Live) Shadow(cand core.Predictor, hist *telemetry.Histogram) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.shadow.Store(&shadowTap{cand: cand, ctx: core.NewPredictContext(), hist: hist})
}

// ShadowPending reports whether a candidate is currently auditioning.
func (l *Live) ShadowPending() bool { return l.shadow.Load() != nil }

// SettleShadow ends the audition once the candidate has been disqualified
// or has scored at least minCalls live calls: the tap is removed and the
// candidate returned, with the reason when it was disqualified (nil means
// clean), for the caller to Install or drop. Otherwise — or with nobody
// auditioning — ok is false and nothing changes. When to settle is the
// caller's policy (the Manager counts decision intervals and settles with
// minCalls 0; the prediction service counts calls); how a candidate is
// scored is not.
func (l *Live) SettleShadow(minCalls int) (cand core.Predictor, disqualified error, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	tap := l.shadow.Load()
	if tap == nil {
		return nil, nil, false
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if tap.bad == nil && tap.calls < minCalls {
		return nil, nil, false
	}
	l.shadow.Store(nil)
	return tap.cand, tap.bad, true
}

// shadowTap scores a candidate model against live traffic: every live
// predict evaluates the candidate on the identical inputs and records the
// absolute p99 disagreement per candidate row in hist. A candidate that
// errors, or produces any non-finite latency or violation probability, is
// disqualified on the spot.
type shadowTap struct {
	cand core.Predictor

	mu    sync.Mutex
	ctx   *core.PredictContext
	hist  *telemetry.Histogram
	calls int   // clean calls scored
	bad   error // why the candidate was disqualified; nil while clean
}

// observe runs one candidate evaluation — eval must answer the inputs the
// live model just answered, in livePred's [B, M] shape plus B violation
// probabilities — and scores it against the live prediction.
func (t *shadowTap) observe(livePred *tensor.Dense, eval func(core.Predictor, *core.PredictContext) (*tensor.Dense, []float64, error)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bad != nil {
		return
	}
	candPred, candPViol, err := eval(t.cand, t.ctx)
	if err != nil {
		t.bad = fmt.Errorf("predict error: %w", err)
		return
	}
	if len(candPred.Data) != len(livePred.Data) {
		t.bad = fmt.Errorf("prediction shape %v, live %v", candPred.Shape, livePred.Shape)
		return
	}
	if !allFinite(candPred.Data) || !allFinite(candPViol) {
		t.bad = errors.New("non-finite prediction")
		return
	}
	t.calls++
	if t.hist == nil {
		return
	}
	m := livePred.Shape[1]
	for p99 := m - 1; p99 < len(livePred.Data); p99 += m {
		t.hist.Observe(math.Abs(candPred.Data[p99] - livePred.Data[p99]))
	}
}

func allFinite(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
