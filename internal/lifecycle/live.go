package lifecycle

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"sinan/internal/core"
	"sinan/internal/nn"
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
// construction. Live implements core.Predictor and core.CostReporter;
// predictions never take the mutex.
//
// The identity version names the served model: Install assigns the next
// unused one and Rollback restores the displaced model's. The prediction
// service exports it as its "server.lifecycle.version" gauge.
type Live struct {
	cur    atomic.Pointer[liveSlot]
	shadow atomic.Pointer[shadowTap]

	mu          sync.Mutex  // serializes Install, Rollback and shadow changes
	history     []*liveSlot // displaced models, newest last
	nextVersion int
}

type liveSlot struct {
	p       core.Predictor
	version int
}

// NewLive wraps p as the initial live model with the given identity version.
func NewLive(p core.Predictor, version int) *Live {
	l := &Live{nextVersion: version + 1}
	l.cur.Store(&liveSlot{p: p, version: version})
	return l
}

// Current returns the live predictor.
func (l *Live) Current() core.Predictor { return l.cur.Load().p }

// Version returns the identity version of the live model.
func (l *Live) Version() int { return l.cur.Load().version }

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

// PredictShared implements core.Predictor: the live model answers, and
// while a candidate is in shadow it scores the same inputs on the side —
// its answer checked, then discarded. A shadow candidate can never affect
// the caller's answer or the call's availability: candidate errors are
// noted in the tap, not returned.
func (l *Live) PredictShared(ctx *core.PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	pred, pviol, err := l.cur.Load().p.PredictShared(ctx, in)
	if err != nil {
		return pred, pviol, err
	}
	if tap := l.shadow.Load(); tap != nil {
		tap.observe(pred, in)
	}
	return pred, pviol, nil
}

// Shadow parks cand as the auditioning candidate: from now on every live
// predict also runs on it, scored by a fresh tap. A candidate already in
// shadow is replaced — last write wins, and the displaced one simply never
// promotes.
func (l *Live) Shadow(cand core.Predictor) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.shadow.Store(&shadowTap{cand: cand, ctx: core.NewPredictContext()})
}

// SettleShadow ends the audition: the tap is removed and the candidate
// returned, with the reason when it was disqualified (nil means clean), for
// the caller to Install or drop. With nobody auditioning ok is false. When
// to settle is the caller's policy (the Manager counts decision
// intervals); how a candidate is scored is not.
func (l *Live) SettleShadow() (cand core.Predictor, disqualified error, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	tap := l.shadow.Load()
	if tap == nil {
		return nil, nil, false
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	l.shadow.Store(nil)
	return tap.cand, tap.bad, true
}

// shadowTap scores a candidate model against live traffic: every live
// predict evaluates the candidate on the identical inputs. A candidate that
// errors, or produces a prediction of another shape or any non-finite
// latency or violation probability, is disqualified on the spot.
type shadowTap struct {
	cand core.Predictor

	mu  sync.Mutex
	ctx *core.PredictContext
	bad error // why the candidate was disqualified; nil while clean
}

// observe evaluates the candidate on in, the inputs the live model just
// answered with livePred, and checks its answer against the live
// prediction's shape.
func (t *shadowTap) observe(livePred *tensor.Dense, in nn.SharedInputs) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bad != nil {
		return
	}
	candPred, candPViol, err := t.cand.PredictShared(t.ctx, in)
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
