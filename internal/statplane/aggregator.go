package statplane

import (
	"fmt"
	"sync"
	"time"

	"sinan/internal/cluster"
	"sinan/internal/metrics"
	"sinan/internal/telemetry"
)

// IntervalState is one decision interval's assembled snapshot — the
// transport-agnostic precursor of runner.State. Stats has one row per
// tier; StatsOK is nil when every tier's report arrived in time, otherwise
// a per-tier mask whose false entries have zeroed rows the policy must
// impute. Stats and StatsOK are the aggregator's own buffers, lent until
// the next BeginInterval (the next Collect): the caller may write them in
// place, and copies what it keeps longer.
type IntervalState struct {
	Interval  int64
	Time      float64
	Stats     []cluster.Stats
	StatsOK   []bool
	RPS       float64
	Perc      metrics.Percentiles
	GatewayOK bool
}

// AggregatorOptions configures interval assembly.
type AggregatorOptions struct {
	// NumTiers is the cluster's tier count — the row count of every
	// assembled snapshot.
	NumTiers int
	// Deadline is the wall-clock budget Assemble spends waiting for
	// outstanding reports before declaring them missing. Zero means no
	// wait: the in-process transport has already delivered synchronously,
	// so waiting would only admit wall-clock nondeterminism.
	Deadline time.Duration
}

// agentEntry is the aggregator's per-agent bookkeeping.
type agentEntry struct {
	name     string
	lastSeq  uint64
	reported int64 // last interval id an accepted report covered (-1 = never)
	missed   int   // consecutive intervals without an accepted report
	stale    *telemetry.Gauge
}

// Aggregator assembles each decision interval's snapshot from whatever
// reports arrive. It is the single snapshot builder shared by the simulated
// (in-process Pipeline) and distributed (Hub) paths:
//
//   - duplicate or reordered deliveries are dropped by per-agent sequence
//     number;
//   - reports for an interval other than the open one are counted late and
//     discarded (their stats describe a window the scheduler has already
//     decided on);
//   - tiers whose report never arrives before the deadline get a zeroed
//     row and StatsOK=false, feeding the scheduler's hold-last-value
//     imputation;
//   - per-agent staleness (consecutive missed intervals) and the live
//     agent count are exported as gauges.
//
// Offer* are safe to call concurrently with Assemble (the Hub calls them
// from connection goroutines); BeginInterval/Assemble are
// driven by the control loop, one open interval at a time.
type Aggregator struct {
	mu   sync.Mutex
	cond *sync.Cond
	opts AggregatorOptions

	agents   map[string]*agentEntry
	order    []*agentEntry // registration order, for deterministic rebinds
	expectGW bool
	gwSeq    uint64

	// Open-interval assembly state. stats and got are reused every interval:
	// Assemble lends them to the caller until the next BeginInterval.
	curID       int64
	curOpen     bool
	stats       []cluster.Stats
	got         []bool
	outstanding int // registered agents that have not reported curID
	gwOK        bool
	rps         float64
	perc        metrics.Percentiles

	// wake is the deadline timer of Assemble's wait, made on the first wait
	// and Reset for every later one. Its callback only wakes the waiter,
	// which judges the deadline by its own clock, so a callback firing late
	// into a later interval's wait cannot expire that interval.
	wake *time.Timer

	lastRPS float64 // hold-last arrival rate for gateway-less intervals

	reg        *telemetry.Registry
	received   *telemetry.Counter
	late       *telemetry.Counter
	duplicate  *telemetry.Counter
	rejected   *telemetry.Counter
	missingT   *telemetry.Counter
	incomplete *telemetry.Counter
	gwReceived *telemetry.Counter
	gwMissing  *telemetry.Counter
	liveG      *telemetry.Gauge
	waitMS     *telemetry.Histogram
}

// NewAggregator creates an aggregator for opts.NumTiers tiers.
func NewAggregator(opts AggregatorOptions) *Aggregator {
	a := &Aggregator{opts: opts, agents: make(map[string]*agentEntry), curID: -1}
	a.cond = sync.NewCond(&a.mu)
	a.AttachMetrics(telemetry.NewRegistry())
	return a
}

// AttachMetrics implements telemetry.Attacher: rebinds the plane's
// instruments ("plane.*") onto reg so a run's registry tells the report
// -delivery story alongside everything else. All counters and gauges are
// driven by report arrival, which in-process is purely sim-ordered; the
// assembly-wait histogram is wall clock and carries the _ms suffix that
// marks it sanctioned-nondeterministic — it is only ever observed on the
// waiting (Deadline > 0) path, which the deterministic transport never
// takes.
func (a *Aggregator) AttachMetrics(reg *telemetry.Registry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reg = reg
	a.received = reg.Counter("plane.reports.received")
	a.late = reg.Counter("plane.reports.late")
	a.duplicate = reg.Counter("plane.reports.duplicate")
	a.rejected = reg.Counter("plane.reports.rejected")
	a.missingT = reg.Counter("plane.tiers.missing")
	a.incomplete = reg.Counter("plane.intervals.incomplete")
	a.gwReceived = reg.Counter("plane.gateway.received")
	a.gwMissing = reg.Counter("plane.gateway.missing")
	a.liveG = reg.Gauge("plane.agents.live")
	a.waitMS = reg.Histogram("plane.assemble.wait_ms")
	for _, e := range a.order {
		e.stale = reg.Gauge("plane.agent.stale", "agent", e.name)
	}
}

// RegisterAgent declares an expected reporter. Assembly waits (under the
// deadline) until every registered agent has reported; an unregistered
// sender's reports are rejected.
func (a *Aggregator) RegisterAgent(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.agents[name]; dup {
		panic(fmt.Sprintf("statplane: agent %q registered twice", name))
	}
	e := &agentEntry{
		name:     name,
		reported: -1,
		stale:    a.reg.Gauge("plane.agent.stale", "agent", name),
	}
	a.agents[name] = e
	a.order = append(a.order, e)
}

// ExpectGateway declares that interval assembly should wait for (and flag
// the absence of) a gateway report.
func (a *Aggregator) ExpectGateway() {
	a.mu.Lock()
	a.expectGW = true
	a.mu.Unlock()
}

// BeginInterval opens assembly of the given decision interval. Reports
// still in flight for earlier intervals will be counted late.
func (a *Aggregator) BeginInterval(id int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.curID = id
	a.curOpen = true
	if a.stats == nil {
		a.stats = make([]cluster.Stats, a.opts.NumTiers)
		a.got = make([]bool, a.opts.NumTiers)
	}
	clear(a.stats)
	clear(a.got)
	a.outstanding = len(a.order)
	a.gwOK = false
	a.rps = 0
	a.perc = metrics.Percentiles{}
}

// OfferReport sequence-checks, interval-checks, and copies an arriving
// node-agent report into the open snapshot; the caller may reuse the
// report's backing storage afterwards.
func (a *Aggregator) OfferReport(r Report) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r.Version != WireVersion {
		a.rejected.Inc()
		return
	}
	e := a.agents[r.Agent]
	if e == nil {
		a.rejected.Inc()
		return
	}
	if r.Seq <= e.lastSeq {
		a.duplicate.Inc()
		return
	}
	e.lastSeq = r.Seq
	if !a.curOpen || r.Interval != a.curID {
		a.late.Inc()
		return
	}
	a.received.Inc()
	if e.reported != a.curID {
		e.reported = a.curID
		a.outstanding--
	}
	for _, ts := range r.Tiers {
		if ts.Tier >= 0 && ts.Tier < len(a.stats) {
			a.stats[ts.Tier] = ts.Stats
			a.got[ts.Tier] = true
		}
	}
	if a.completeLocked() {
		a.cond.Broadcast()
	}
}

// OfferGatewayReport does the same for the gateway's report.
func (a *Aggregator) OfferGatewayReport(g GatewayReport) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if g.Version != WireVersion {
		a.rejected.Inc()
		return
	}
	if g.Seq <= a.gwSeq {
		a.duplicate.Inc()
		return
	}
	a.gwSeq = g.Seq
	if !a.curOpen || g.Interval != a.curID {
		a.late.Inc()
		return
	}
	a.gwReceived.Inc()
	a.gwOK = true
	a.rps = g.RPS
	a.perc = g.Perc
	if a.completeLocked() {
		a.cond.Broadcast()
	}
}

func (a *Aggregator) completeLocked() bool {
	return a.outstanding == 0 && (a.gwOK || !a.expectGW)
}

// Assemble closes the open interval and returns its snapshot, waiting up
// to the configured deadline for outstanding reports first. now is the
// simulated time stamped into the snapshot.
func (a *Aggregator) Assemble(id int64, now float64) IntervalState {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.curOpen || a.curID != id {
		panic(fmt.Sprintf("statplane: Assemble(%d) without matching BeginInterval (open=%v cur=%d)",
			id, a.curOpen, a.curID))
	}
	if a.opts.Deadline > 0 && !a.completeLocked() {
		start := time.Now()
		if a.wake == nil {
			a.wake = time.AfterFunc(a.opts.Deadline, a.wakeWaiter)
		} else {
			a.wake.Reset(a.opts.Deadline)
		}
		// Expiry is read off this wait's own clock, never off the callback:
		// Stop below can lose the race with a callback already scheduled,
		// which then fires into some later wait and must not end it early.
		for !a.completeLocked() && time.Since(start) < a.opts.Deadline {
			a.cond.Wait()
		}
		a.wake.Stop()
		a.waitMS.Observe(float64(time.Since(start).Microseconds()) / 1000)
	}
	a.curOpen = false

	st := IntervalState{
		Interval: id, Time: now,
		Stats: a.stats, RPS: a.rps, Perc: a.perc, GatewayOK: a.gwOK,
	}
	missing := 0
	for _, ok := range a.got {
		if !ok {
			missing++
		}
	}
	if missing > 0 {
		st.StatsOK = a.got
		a.missingT.Add(int64(missing))
		a.incomplete.Inc()
	}
	if a.expectGW && !a.gwOK {
		// Arrival rate degrades gracefully to hold-last; the latency
		// summary stays zero (indistinguishable from an idle interval) and
		// GatewayOK tells the consumer not to trust it.
		a.gwMissing.Inc()
		st.RPS = a.lastRPS
	}
	a.lastRPS = st.RPS

	live := 0
	for _, e := range a.order {
		if e.reported == id {
			e.missed = 0
			live++
		} else {
			e.missed++
		}
		e.stale.Set(float64(e.missed))
	}
	a.liveG.Set(float64(live))
	return st
}

// wakeWaiter is the deadline timer's callback: it wakes Assemble's wait,
// which then checks its deadline. Taking the lock orders the wake-up after
// the waiter's check, so it is never lost.
func (a *Aggregator) wakeWaiter() {
	a.mu.Lock()
	a.cond.Broadcast()
	a.mu.Unlock()
}
