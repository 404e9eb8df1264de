package core

import "errors"

// IsOverload reports whether a predictor error is a load-shed response: the
// model host is alive but refused the query to protect itself (admission
// queue full, drain in progress, injected overload). Implementations mark
// such errors by implementing Overloaded() bool anywhere in the wrap chain
// (predsvc.ErrOverloaded and faults.ErrShed both do). The scheduler treats
// a shed differently from a dead host: the right response is a smaller
// candidate batch next interval — browning out — not hammering the service
// with the same oversized query.
func IsOverload(err error) bool {
	var o interface{ Overloaded() bool }
	return errors.As(err, &o) && o.Overloaded()
}

// CostReporter is optionally implemented by predictors that can report the
// cost of their most recent successful PredictBatch in milliseconds
// (predsvc.Client measures wall time; the fault injector reports its
// injected slowdown deterministically). The scheduler's brownout ladder
// treats a cost above SchedulerOptions.SlowPredictMS as overload pressure:
// predictions that arrive late eat into the 1 s decision interval, and the
// cure is fewer candidates, applied before the slowness turns into missed
// intervals or timeouts.
type CostReporter interface {
	LastPredictMS() float64
}

// Brownout ladder levels. The scheduler degrades its candidate enumeration
// along this ladder while the prediction path is slow, shedding, or
// erroring, and climbs back down hysteretically once queries are healthy
// again. Each step trades decision quality for a cheaper (and therefore
// likelier-to-succeed) model query — the scheduler never skips a decision
// interval, it asks a smaller question instead.
const (
	// BrownoutNone: full Table-1 candidate enumeration.
	BrownoutNone = 0
	// BrownoutTopK: single-tier operations restricted to the most relevant
	// tiers by utilization (scale-ups to the hottest, scale-downs to the
	// coldest), one batch-reclaim variant, safety candidates kept.
	BrownoutTopK = 1
	// BrownoutHold: the hold candidate only — a batch-of-one query that
	// doubles as the recovery probe, with the degraded fallback and the
	// emergency ramp still armed behind it.
	BrownoutHold = 2
)

const (
	// brownoutTopK is the per-direction tier budget at BrownoutTopK.
	brownoutTopK = 4
	// brownoutRecover is the hysteresis on the way down the ladder: the
	// number of consecutive healthy model queries per step toward full
	// enumeration. Escalation is immediate — one shed, slow, or failed query
	// per step — because under overload every oversized query makes the
	// overload worse; recovery is slower so that one lucky query while the
	// predictor is still saturated cannot flap the ladder.
	brownoutRecover = 3
)

// BrownoutLevel reports the scheduler's current brownout ladder level
// (BrownoutNone, BrownoutTopK, or BrownoutHold).
func (s *Scheduler) BrownoutLevel() int { return s.brownLevel }

// brownoutPressure escalates the ladder one level in response to a shed,
// slow, or failed model query. This is the only place the level rises, so a
// NoBrownout scheduler stays at BrownoutNone by never climbing.
func (s *Scheduler) brownoutPressure() {
	s.brownGood = 0
	if s.brownLevel < BrownoutHold && !s.Opts.NoBrownout {
		s.brownLevel++
	}
}

// brownoutObserve processes a successful model query: one that cost more than
// SlowPredictMS is pressure like a failure, a healthy one counts toward
// recovery.
func (s *Scheduler) brownoutObserve() {
	slow := s.Opts.SlowPredictMS
	if cr, ok := s.M.(CostReporter); ok && slow > 0 && cr.LastPredictMS() > slow {
		s.brownoutPressure()
	} else if s.brownLevel > BrownoutNone {
		s.brownGood++
		if s.brownGood >= brownoutRecover {
			s.brownLevel--
			s.brownGood = 0
		}
	}
}
