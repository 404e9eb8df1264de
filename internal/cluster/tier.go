// Package cluster models a microservice cluster as a network of
// processor-sharing queues. Each tier runs under a cgroup-style fractional
// CPU limit; requests execute call trees across tiers, holding connection
// slots while their subtrees run, which propagates backpressure upstream
// exactly as RPC thread pools do in real deployments. The model exposes the
// same per-tier statistics Sinan collects from Docker's cgroup interface:
// CPU usage, resident set size, page-cache size, and network packet counts.
package cluster

import (
	"fmt"
	"math"

	"sinan/internal/sim"
)

const workEps = 1e-9

// TierConfig describes one microservice tier.
type TierConfig struct {
	Name     string
	Replicas int // number of container replicas

	// CPU limits in cores. The allocation granularity Sinan uses is 0.2
	// cores; MinCPU/MaxCPU bound what the schedulers may set.
	MinCPU, MaxCPU, InitCPU float64

	// ConnsPerReplica bounds concurrent requests per replica (thread/
	// connection pool). Requests beyond the bound wait in a FIFO queue.
	ConnsPerReplica int

	// MaxQueue bounds the admission queue; requests arriving beyond it are
	// dropped (and recorded by the caller as QoS violations).
	MaxQueue int

	// Memory model (MB). RSS = BaseRSS + RSSPerConn*busy + RSSPerQueued*queued
	// (+ write-driven growth for stateful tiers). Cache approaches CacheMax
	// as the tier serves requests (page cache warming for DB tiers).
	BaseRSS, RSSPerConn, RSSPerQueued float64
	RSSPerWrite, RSSWriteCap          float64
	CacheBase, CacheMax, CacheTau     float64

	// WorkCV is the coefficient of variation of sampled CPU demands.
	WorkCV float64

	// Log-sync stall injection (the Redis AOF pathology of Sec. 5.6): every
	// StallInterval seconds the tier stops serving for StallBase +
	// StallPerMB*RSS seconds (fork + copy-on-write of the address space).
	StallInterval, StallBase, StallPerMB float64
}

func (c TierConfig) withDefaults() TierConfig {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.ConnsPerReplica <= 0 {
		c.ConnsPerReplica = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 20000
	}
	c.MinCPU, c.MaxCPU = c.CPUBounds()
	if c.InitCPU <= 0 {
		c.InitCPU = c.MaxCPU
	}
	if c.WorkCV <= 0 {
		c.WorkCV = 0.5
	}
	if c.BaseRSS <= 0 {
		c.BaseRSS = 50
	}
	if c.CacheTau <= 0 {
		c.CacheTau = 5000
	}
	return c
}

// CPUBounds returns the allocation range schedulers may set: [MinCPU,
// MaxCPU], with 0.2 and 8 cores where the config leaves a bound unset. Every
// policy reads it here, so none can disagree with what the tier enforces.
func (c TierConfig) CPUBounds() (lo, hi float64) {
	lo, hi = c.MinCPU, c.MaxCPU
	if lo <= 0 {
		lo = 0.2
	}
	if hi <= 0 {
		hi = 8
	}
	return lo, hi
}

// ClampCPU quantises an allocation to the 0.1-core granularity the Docker
// API accepts and clamps it to CPUBounds.
func (c TierConfig) ClampCPU(cores float64) float64 {
	lo, hi := c.CPUBounds()
	return min(max(math.Round(cores*10)/10, lo), hi)
}

// psJob is one unit of CPU work being processor-shared on a tier. Jobs all
// progress at the same instantaneous rate min(1, L/n), so completion order
// is fixed at admission: the tier tracks virtual work V(t) = ∫rate dt and a
// job admitted at V0 with demand w completes when V reaches V0 + w. Jobs
// with equal vFinish complete in admission order (seq).
type psJob struct {
	vFinish float64
	seq     int64
	call    *call
}

func (a psJob) before(b psJob) bool {
	return a.vFinish < b.vFinish || (a.vFinish == b.vFinish && a.seq < b.seq)
}

// jobQueue is a binary min-heap of jobs by completion order.
type jobQueue []psJob

func (q *jobQueue) push(j psJob) {
	h := append(*q, j)
	*q = h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !j.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = j
}

func (q *jobQueue) pop() psJob {
	h := *q
	top, last := h[0], h[len(h)-1]
	h[len(h)-1] = psJob{}
	h = h[:len(h)-1]
	*q = h
	if len(h) == 0 {
		return top
	}
	i := 0
	for {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if m+1 < len(h) && h[m+1].before(h[m]) {
			m++
		}
		if !h[m].before(last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}

// callRing is a FIFO of calls waiting for a connection slot.
type callRing struct {
	buf  []*call // len is zero or a power of two
	head int
	n    int
}

func (r *callRing) push(k *call) {
	if r.n == len(r.buf) {
		grown := make([]*call, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = k
	r.n++
}

func (r *callRing) pop() *call {
	k := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return k
}

// Tier is the runtime state of one microservice tier.
type Tier struct {
	cfg   TierConfig
	eng   *sim.Engine
	rng   *sim.RNG
	index int // position in the cluster's tier order

	cpuLimit float64
	alive    float64 // fraction of replica capacity alive (1 = healthy)

	active     jobQueue
	jobSeq     int64   // admission order, the tie-break among equal vFinish
	vwork      float64 // virtual work: ∫ per-job rate dt
	lastUpdate float64
	completion sim.Timer // fires t.complete
	finished   []*call   // complete's scratch: the calls retired by one event

	// What reschedule last computed, for advance to multiply by: the
	// per-job rate min(1, effCPU/n) and the busy cores min(effCPU, n).
	jobRate, busyCores float64

	slots     int
	liveSlots int // slots surviving replica crashes: int(slots * alive)
	inUse     int
	waitq     callRing
	dropped   int64

	stalled    bool
	stallTotal float64 // stalled seconds in current interval

	// interval accumulators, reset by Cluster.SampleTier
	busyCPU    float64 // core-seconds consumed
	netRx      int64
	netTx      int64
	servedIntv int64
	lastSample float64 // sim time of the last SampleTier call

	servedTotal int64
	writeBytes  float64 // total write volume driving RSS growth (stateful tiers)
}

func newTier(eng *sim.Engine, rng *sim.RNG, cfg TierConfig, index int) *Tier {
	cfg = cfg.withDefaults()
	t := &Tier{
		cfg:      cfg,
		eng:      eng,
		rng:      rng,
		index:    index,
		cpuLimit: cfg.InitCPU,
		alive:    1,
		slots:    cfg.ConnsPerReplica * cfg.Replicas,
	}
	t.liveSlots = t.slots
	t.completion = eng.NewTimer(t.complete)
	if cfg.StallInterval > 0 {
		eng.After(cfg.StallInterval, t.stall)
	}
	return t
}

// Name returns the tier name.
func (t *Tier) Name() string { return t.cfg.Name }

// CPULimit returns the current CPU allocation in cores.
func (t *Tier) CPULimit() float64 { return t.cpuLimit }

// QueueLen returns the number of requests waiting for a connection slot.
func (t *Tier) QueueLen() int { return t.waitq.n }

// Inflight returns the number of requests holding a connection slot.
func (t *Tier) Inflight() int { return t.inUse }

// Active returns the number of jobs currently consuming CPU.
func (t *Tier) Active() int { return len(t.active) }

// Dropped returns the cumulative number of requests dropped at admission.
func (t *Tier) Dropped() int64 { return t.dropped }

// SetCPULimit changes the tier's CPU allocation, quantised and clamped by
// TierConfig.ClampCPU.
func (t *Tier) SetCPULimit(cores float64) {
	cores = t.cfg.ClampCPU(cores)
	if cores == t.cpuLimit {
		return
	}
	t.advance()
	t.cpuLimit = cores
	t.reschedule()
}

// effCPU returns the CPU capacity actually available: the cgroup limit
// scaled by the fraction of replicas alive. The limit itself is what the
// node agent reports — a crashed replica does not change the cgroup
// configuration, only the capacity behind it.
func (t *Tier) effCPU() float64 { return t.cpuLimit * t.alive }

// AliveFraction returns the fraction of replica capacity currently alive.
func (t *Tier) AliveFraction() float64 { return t.alive }

// SetAliveFraction models replica crashes and restarts: f is the fraction
// of the tier's replica capacity that is up (1 = healthy, 0.5 = half the
// replicas crashed, 0 = tier entirely down). Both the effective CPU
// capacity and the connection-slot pool shrink proportionally; queued
// requests are admitted again as capacity returns. Crashes compose with the
// log-sync stall machinery — a stalled tier that also lost replicas resumes
// at the reduced capacity.
func (t *Tier) SetAliveFraction(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	if f == t.alive {
		return
	}
	t.advance()
	t.alive = f
	t.liveSlots = int(float64(t.slots) * f)
	t.reschedule()
	t.pumpWaiters()
}

// advance applies elapsed processor-sharing progress up to the current time.
func (t *Tier) advance() {
	now := t.eng.Now()
	dt := now - t.lastUpdate
	t.lastUpdate = now
	if dt <= 0 {
		return
	}
	if t.stalled {
		t.stallTotal += dt
		return
	}
	if len(t.active) == 0 {
		return
	}
	t.vwork += t.jobRate * dt
	t.busyCPU += t.busyCores * dt
}

// reschedule recomputes the per-job rate and the next completion after any
// change to the active set, the CPU limit, the alive fraction or the stall
// state; every such change calls it before the next advance, which relies on
// the rate cached here. While the jobs fit the capacity (n <= effCPU, the
// common case) the rate min(1, effCPU/n) is exactly 1 and x/1 == x, so neither
// division is evaluated.
func (t *Tier) reschedule() {
	n := float64(len(t.active))
	if n == 0 || t.stalled {
		t.completion.Stop()
		return
	}
	d := t.active[0].vFinish - t.vwork
	if eff := t.effCPU(); n <= eff {
		t.jobRate, t.busyCores = 1, n
	} else {
		t.jobRate, t.busyCores = eff/n, eff
		if t.jobRate == 0 { // every replica is down
			t.completion.Stop()
			return
		}
		d /= t.jobRate
	}
	t.completion.Set(t.eng.Now() + max(d, 0))
}

// complete retires all jobs whose work has finished. It only ever runs as
// an engine event, never from inside a call's callbacks, so the scratch
// slice is not in use when it starts.
func (t *Tier) complete() {
	t.advance()
	t.finished = t.finished[:0]
	for len(t.active) > 0 && t.active[0].vFinish <= t.vwork+workEps {
		t.finished = append(t.finished, t.active.pop().call)
	}
	t.reschedule()
	for _, k := range t.finished {
		k.workDone()
	}
}

// execWork runs cpuSeconds of CPU demand under processor sharing and calls
// k.workDone when it completes. Zero work completes via an immediate event
// to keep callback ordering uniform.
func (t *Tier) execWork(cpuSeconds float64, k *call) {
	if cpuSeconds <= 0 {
		t.eng.After(0, k.workDoneFn)
		return
	}
	t.advance()
	t.active.push(psJob{vFinish: t.vwork + cpuSeconds, seq: t.jobSeq, call: k})
	t.jobSeq++
	t.servedIntv++
	t.servedTotal++
	t.reschedule()
}

// acquireSlot obtains a connection slot for k, queueing it if the pool is
// saturated; k.granted runs once it holds the slot. It reports false if the
// admission queue is full and the request is dropped.
func (t *Tier) acquireSlot(k *call) bool {
	if t.inUse < t.liveSlots {
		t.inUse++
		k.granted()
		return true
	}
	if t.QueueLen() >= t.cfg.MaxQueue {
		t.dropped++
		return false
	}
	t.waitq.push(k)
	return true
}

// releaseSlot frees a connection slot and admits the next waiter, if any.
func (t *Tier) releaseSlot() {
	t.inUse--
	t.pumpWaiters()
}

// pumpWaiters admits queued slot acquisitions while capacity allows. It is
// the single admission point, so a slot pool shrunk by a replica crash
// drains naturally (releases outnumber admissions until inUse fits again)
// and a restored pool re-admits the queue.
func (t *Tier) pumpWaiters() {
	for t.waitq.n > 0 && t.inUse < t.liveSlots {
		t.inUse++
		t.waitq.pop().granted()
	}
}

// stall begins a log-sync pause; service resumes after the stall duration.
func (t *Tier) stall() {
	t.advance()
	t.stalled = true
	t.reschedule()
	dur := t.cfg.StallBase + t.cfg.StallPerMB*t.rss()
	t.eng.After(dur, func() {
		t.advance()
		t.stalled = false
		t.reschedule()
	})
	t.eng.After(t.cfg.StallInterval, t.stall)
}

// recordWrite accumulates write volume for RSS growth on stateful tiers.
func (t *Tier) recordWrite(bytes float64) {
	t.writeBytes += bytes
}

func (t *Tier) rss() float64 {
	rss := t.cfg.BaseRSS +
		t.cfg.RSSPerConn*float64(t.inUse) +
		t.cfg.RSSPerQueued*float64(t.QueueLen())
	if t.cfg.RSSPerWrite > 0 {
		g := t.cfg.RSSPerWrite * t.writeBytes
		if t.cfg.RSSWriteCap > 0 && g > t.cfg.RSSWriteCap {
			g = t.cfg.RSSWriteCap
		}
		rss += g
	}
	return rss
}

func (t *Tier) cache() float64 {
	if t.cfg.CacheMax <= 0 {
		return t.cfg.CacheBase
	}
	warm := 1 - math.Exp(-float64(t.servedTotal)/t.cfg.CacheTau)
	return t.cfg.CacheBase + (t.cfg.CacheMax-t.cfg.CacheBase)*warm
}

func (t *Tier) String() string {
	return fmt.Sprintf("tier(%s cpu=%.1f active=%d queued=%d)",
		t.cfg.Name, t.cpuLimit, len(t.active), t.QueueLen())
}
