// Admission control for the prediction service. The paper's manager is
// centralized: every scheduler in the cluster queries one model host each
// decision interval, and the arXiv version of Sinan calls the centralized
// predictor out as the scalability bottleneck. Without admission control a
// burst of schedulers (or a model made slow by a Swap) queue-collapses the
// service exactly when decisions are most urgent: every request is accepted,
// every request runs late, and no request returns before its caller's
// deadline. The gate here sheds load before that happens:
//
//   - a concurrency limit sized to GOMAXPROCS bounds how many predictions
//     execute at once (inference is CPU-bound; more concurrency past the
//     core count only adds contention, not throughput);
//   - a small bounded queue absorbs short bursts;
//   - the queue is drained LIFO: under overload the newest request has the
//     most remaining deadline budget, while the oldest is closest to being
//     abandoned by its caller — serving newest-first converts a little
//     unfairness into a lot of goodput;
//   - when the queue overflows, the oldest entry is shed with a typed
//     ErrOverloaded (preferring entries whose deadline has already passed);
//   - requests carry their remaining deadline budget on the wire
//     (PredictArgs.DeadlineMS), so the server drops work the client has
//     already timed out on instead of burning cores computing an answer
//     nobody reads.
package predsvc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"sinan/internal/lifecycle"
	"sinan/internal/telemetry"
)

// overloadErr is the concrete type behind ErrOverloaded. It implements
// Overloaded() bool so core.IsOverload classifies it (and anything wrapping
// it) as a shed, distinct from a dead-host failure.
type overloadErr struct{}

func (overloadErr) Error() string    { return "predsvc: overloaded: admission queue full" }
func (overloadErr) Overloaded() bool { return true }

// ErrOverloaded is returned when the admission gate sheds a request: the
// service is alive but saturated. Clients must not retry immediately — a
// shed is the server asking for air — and the scheduler answers by browning
// out (smaller candidate batches), not by treating the model host as dead.
var ErrOverloaded error = overloadErr{}

// ErrExpired is returned for requests whose propagated deadline passed
// before an execution slot opened: the client has already timed out, so
// computing the answer would be pure waste.
var ErrExpired = errors.New("predsvc: request deadline expired before execution")

// errDraining rejects requests queued behind a server shutdown. It is
// overload-classified (errors.Is ErrOverloaded) so clients count it as a
// shed rather than a transport failure.
var errDraining = fmt.Errorf("predsvc: server draining: %w", ErrOverloaded)

// IsOverloaded reports whether err is a load-shed response — either the
// local typed sentinel (possibly wrapped) or its wire form, since a server
// error crosses the wire as its message.
func IsOverloaded(err error) bool {
	if err == nil {
		return false
	}
	var o interface{ Overloaded() bool }
	if errors.As(err, &o) && o.Overloaded() {
		return true
	}
	return strings.Contains(err.Error(), ErrOverloaded.Error()) ||
		strings.Contains(err.Error(), "predsvc: server draining")
}

// IsExpired reports whether err is a deadline-expiry drop, local or wire
// form.
func IsExpired(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrExpired) || strings.Contains(err.Error(), ErrExpired.Error())
}

// ServiceOptions tunes the service's admission control. The zero value
// means "use defaults" for every field.
type ServiceOptions struct {
	// MaxConcurrent bounds how many predictions execute at once. 0 means
	// GOMAXPROCS (inference is CPU-bound, so that is the knee of the
	// throughput curve); negative disables admission control entirely —
	// every request executes immediately, which is the unprotected baseline
	// the overload experiment measures against.
	MaxConcurrent int
	// MaxQueue bounds how many admitted-but-waiting requests the gate
	// holds. 0 means 4×MaxConcurrent; negative means no queue (anything
	// beyond the concurrency limit is shed on arrival).
	MaxQueue int

	// Guard, when non-nil, is the validation gate every UpdateModel RPC
	// must pass: the candidate replays the gate's pinned holdout and is
	// refused unless its error stays within margin of the live model's. Nil
	// accepts any well-formed, dims-compatible artifact.
	Guard *lifecycle.Gate
	// ShadowCalls, when positive, parks a gate-accepted update in shadow:
	// the candidate scores that many live Predict batches (observed, never
	// served) and promotes only if every observation stays finite. 0
	// installs accepted updates immediately.
	ShadowCalls int
}

func (o ServiceOptions) withDefaults() ServiceOptions {
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 4 * o.MaxConcurrent
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0
	}
	return o
}

// ServerStats is a snapshot of what the admission gate has done, exposed
// in-process via Service.StatsSnapshot and over the wire via
// Client.ServerStats. It is a thin view assembled from the service's telemetry
// registry (the instruments under "server.admission.*"), kept as a struct so
// the wire format and experiment tables are stable.
type ServerStats struct {
	Accepted  int64 // requests granted an execution slot
	Active    int   // executing right now
	Queued    int   // waiting for a slot right now
	Shed      int64 // dropped: queue overflow, no-queue saturation, or drain
	Expired   int64 // dropped: the client's deadline passed while waiting
	PeakQueue int   // queue high-water mark
}

// StatsReply carries the ServerStats snapshot over the wire.
type StatsReply struct {
	Stats ServerStats
}

// waiter is one queued admission request.
type waiter struct {
	ready    chan error // buffered(1): nil = admitted, else the shed reason
	deadline time.Time  // zero = none
}

// gate is the admission controller: a concurrency semaphore with a bounded
// LIFO wait stack and deadline-aware shedding. Outcome counts and occupancy
// live on telemetry instruments ("server.admission.*" in the service's
// registry); the mutex guards only the structural state the admission logic
// itself needs (the active count and the wait stack).
type gate struct {
	limit int // <= 0: unlimited (admission disabled)
	maxQ  int
	now   func() time.Time // test seam; wall clock in production

	mu     sync.Mutex
	active int
	queue  []*waiter // stack: the end is the newest
	closed bool

	accepted  *telemetry.Counter // admission outcomes, one counter per kind
	shed      *telemetry.Counter
	expired   *telemetry.Counter
	activeG   *telemetry.Gauge // executing right now
	queuedG   *telemetry.Gauge // waiting for a slot right now
	peakQueue *telemetry.Gauge // queue depth high-water mark

	// The release funcs acquire hands out, bound once by newGate: a method
	// value made per request would cost an allocation per request.
	releaseFn, releaseUnlimitedFn func()
}

func newGate(o ServiceOptions, reg *telemetry.Registry) *gate {
	o = o.withDefaults()
	g := &gate{
		limit:     o.MaxConcurrent,
		maxQ:      o.MaxQueue,
		now:       time.Now,
		accepted:  reg.Counter("server.admission.outcome", "result", "accepted"),
		shed:      reg.Counter("server.admission.outcome", "result", "shed"),
		expired:   reg.Counter("server.admission.outcome", "result", "expired"),
		activeG:   reg.Gauge("server.admission.active"),
		queuedG:   reg.Gauge("server.admission.queued"),
		peakQueue: reg.Gauge("server.admission.queue_peak"),
	}
	g.releaseFn, g.releaseUnlimitedFn = g.release, g.releaseUnlimited
	return g
}

// setActiveLocked adjusts the active count and mirrors it into the gauge.
func (g *gate) setActiveLocked(d int) {
	g.active += d
	g.activeG.Set(float64(g.active))
}

// setQueuedLocked mirrors the queue depth into its gauge and high-water mark.
func (g *gate) setQueuedLocked() {
	n := float64(len(g.queue))
	g.queuedG.Set(n)
	g.peakQueue.SetMax(n)
}

// acquire blocks until the request is granted an execution slot or dropped.
// On success the caller must invoke the returned release exactly once. A
// zero deadline means the request never expires server-side.
func (g *gate) acquire(deadline time.Time) (release func(), err error) {
	if g.limit <= 0 {
		// Admission disabled: execute immediately, tracking active for
		// observability only.
		g.mu.Lock()
		g.setActiveLocked(1)
		g.accepted.Inc()
		g.mu.Unlock()
		return g.releaseUnlimitedFn, nil
	}
	g.mu.Lock()
	if g.closed {
		g.shed.Inc()
		g.mu.Unlock()
		return nil, errDraining
	}
	if !deadline.IsZero() && !g.now().Before(deadline) {
		g.expired.Inc()
		g.mu.Unlock()
		return nil, ErrExpired
	}
	if g.active < g.limit {
		g.setActiveLocked(1)
		g.accepted.Inc()
		g.mu.Unlock()
		return g.releaseFn, nil
	}
	if g.maxQ == 0 {
		g.shed.Inc()
		g.mu.Unlock()
		return nil, ErrOverloaded
	}
	if len(g.queue) >= g.maxQ {
		g.evictLocked()
	}
	w := &waiter{ready: make(chan error, 1), deadline: deadline}
	g.queue = append(g.queue, w)
	g.setQueuedLocked()
	g.mu.Unlock()
	if err := <-w.ready; err != nil {
		return nil, err
	}
	return g.releaseFn, nil
}

// evictLocked drops one queued entry to make room: preferably the oldest
// whose deadline has already passed (it would be dropped at grant time
// anyway), otherwise the oldest outright — under overload the oldest
// request is the one its caller is about to abandon.
func (g *gate) evictLocked() {
	now := g.now()
	for i, w := range g.queue {
		if !w.deadline.IsZero() && !now.Before(w.deadline) {
			g.expired.Inc()
			w.ready <- ErrExpired
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			g.setQueuedLocked()
			return
		}
	}
	g.shed.Inc()
	g.queue[0].ready <- ErrOverloaded
	g.queue = g.queue[:copy(g.queue, g.queue[1:])]
	g.setQueuedLocked()
}

// release frees an execution slot and grants it to the newest viable queued
// waiter (LIFO), expiring stale entries along the way.
func (g *gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.setActiveLocked(-1)
	g.grantLocked()
}

func (g *gate) releaseUnlimited() {
	g.mu.Lock()
	g.setActiveLocked(-1)
	g.mu.Unlock()
}

func (g *gate) grantLocked() {
	for g.active < g.limit && len(g.queue) > 0 {
		w := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		if !w.deadline.IsZero() && !g.now().Before(w.deadline) {
			g.expired.Inc()
			w.ready <- ErrExpired
			continue
		}
		g.setActiveLocked(1)
		g.accepted.Inc()
		w.ready <- nil
	}
	g.setQueuedLocked()
}

// close rejects every queued waiter and refuses future admissions; active
// requests are unaffected (graceful shutdown drains them).
func (g *gate) close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	for _, w := range g.queue {
		g.shed.Inc()
		w.ready <- errDraining
	}
	g.queue = nil
	g.setQueuedLocked()
}

// stats assembles the ServerStats view from the gate's instruments.
func (g *gate) stats() ServerStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return ServerStats{
		Accepted:  g.accepted.Value(),
		Active:    g.active,
		Queued:    len(g.queue),
		Shed:      g.shed.Value(),
		Expired:   g.expired.Value(),
		PeakQueue: int(g.peakQueue.Value()),
	}
}
