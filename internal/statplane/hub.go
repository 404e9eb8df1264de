package statplane

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"sinan/internal/telemetry"
)

// Envelope is the single gob message type of the stats-plane wire
// protocol; exactly one field is non-nil per message. Agent→hub traffic
// carries Report/GatewayReport (and Hello on connect); the hub→agent
// direction carries Assign and per-interval Sample pushes.
// One message type keeps the stream self-describing without a length
// -prefixed framing layer: gob streams are already delimited.
type Envelope struct {
	Report  *Report
	Gateway *GatewayReport
	Hello   *Hello
	Assign  *Assign
	Sample  *Sample
}

// Hello introduces an agent to the hub. Version gates the session the
// same way WireVersion gates individual reports.
type Hello struct {
	Version int
	Agent   string
}

// Assign is the hub's response to Hello: the tier indices the agent now
// owns and the decision-interval length. An empty Tiers means the hub had
// no partition left and the agent should back off and retry.
type Assign struct {
	Version     int
	Tiers       []int
	IntervalSec float64
}

// Sample is a per-interval stats push from the hub to a remote agent: the
// simulated cluster lives with the scheduler, so the hub samples on the
// agent's behalf and the agent turns the sample into its own sequenced
// Report — giving the report path (loss, duplication, reordering, delay)
// a real wire to misbehave on.
type Sample struct {
	Interval int64
	Time     float64
	Tiers    []TierStats
}

// HubConfig configures a distributed stats hub.
type HubConfig struct {
	Sampler     TierSampler
	NumTiers    int
	Gateway     GatewaySource // in-process: the gateway lives with the scheduler
	IntervalSec float64
	// TiersPerAgent sizes the partitions handed to connecting agents
	// (default 1).
	TiersPerAgent int
	// Deadline is the wall-clock straggler budget per interval (default
	// 250ms).
	Deadline time.Duration
}

// Hub is the scheduler-side stats plane of a distributed run: it listens
// for sinan-agent processes, hands each a tier partition, pushes them the
// interval's samples (the simulated cluster lives with the scheduler, so
// the hub samples on their behalf), and assembles whatever reports make
// it back over TCP before the deadline. Tiers whose agent is absent, slow,
// or lossy simply come back StatsOK=false — the control loop never waits
// on the network beyond the deadline and never fails because of it.
//
// Agents are keyed by name: a reconnecting agent (same -id) reclaims its
// partition and keeps its sequence numbers, so a redial looks like a blip,
// not a new node.
type Hub struct {
	cfg HubConfig
	agg *Aggregator
	gw  *GatewayReporter
	lis net.Listener

	mu       sync.Mutex
	parts    [][]int
	sessions map[string]*hubSession // by agent name
	assigned int
	closed   bool
	wg       sync.WaitGroup

	pushes   *telemetry.Counter
	pushErrs *telemetry.Counter
}

type hubSession struct {
	mu    sync.Mutex
	conn  net.Conn
	enc   *gob.Encoder
	tiers []int
}

// NewHub listens on addr and serves the agent feed. Call Collect once per
// decision interval; Close when the run ends.
func NewHub(addr string, cfg HubConfig) (*Hub, error) {
	if cfg.Deadline <= 0 {
		cfg.Deadline = 250 * time.Millisecond
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := &Hub{
		cfg:      cfg,
		agg:      NewAggregator(AggregatorOptions{NumTiers: cfg.NumTiers, Deadline: cfg.Deadline}),
		lis:      lis,
		parts:    PartitionTiers(cfg.NumTiers, cfg.TiersPerAgent),
		sessions: make(map[string]*hubSession),
	}
	if cfg.Gateway != nil {
		h.agg.ExpectGateway()
		h.gw = NewGatewayReporter("gateway", cfg.Gateway, cfg.IntervalSec,
			&InProcess{Sink: h.agg})
	}
	h.AttachMetrics(telemetry.NewRegistry())
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// AttachMetrics implements telemetry.Attacher: the aggregator's plane.*
// instruments plus the hub's push counters land on reg.
func (h *Hub) AttachMetrics(reg *telemetry.Registry) {
	h.agg.AttachMetrics(reg)
	h.mu.Lock()
	h.pushes = reg.Counter("plane.hub.sample_pushes")
	h.pushErrs = reg.Counter("plane.hub.push_errors")
	h.mu.Unlock()
}

// Addr returns the hub's listen address.
func (h *Hub) Addr() string { return h.lis.Addr().String() }

// Agents returns how many distinct agents currently hold a partition.
func (h *Hub) Agents() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.assigned
}

// Partitions returns how many agent slots the hub offers in total.
func (h *Hub) Partitions() int { return len(h.parts) }

// AwaitAgents blocks until n agents hold partitions or the timeout lapses;
// it returns the number connected. Used at startup so a demo run does not
// burn its first intervals on an empty plane.
func (h *Hub) AwaitAgents(n int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		if got := h.Agents(); got >= n || time.Now().After(deadline) {
			return got
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (h *Hub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.lis.Accept()
		if err != nil {
			return
		}
		h.wg.Add(1)
		go h.handle(conn)
	}
}

// handle runs one agent connection: Hello → Assign, then a read loop
// feeding reports into the aggregator. The connection's write side is
// driven separately by Collect's sample pushes.
func (h *Hub) handle(conn net.Conn) {
	defer h.wg.Done()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)

	var env Envelope
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := dec.Decode(&env); err != nil || env.Hello == nil ||
		env.Hello.Version != WireVersion || env.Hello.Agent == "" {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	name := env.Hello.Agent

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		conn.Close()
		return
	}
	sess := h.sessions[name]
	if sess == nil {
		if h.assigned >= len(h.parts) {
			h.mu.Unlock()
			// No partition left: an empty assignment tells the agent to go
			// away politely.
			enc.Encode(&Envelope{Assign: &Assign{Version: WireVersion}})
			conn.Close()
			return
		}
		sess = &hubSession{tiers: h.parts[h.assigned]}
		h.sessions[name] = sess
		h.assigned++
		h.agg.RegisterAgent(name)
	}
	sess.mu.Lock()
	if sess.conn != nil {
		sess.conn.Close() // stale connection from before a redial
	}
	sess.conn = conn
	sess.enc = enc
	sess.mu.Unlock()
	h.mu.Unlock()

	if err := h.sendTo(sess, &Envelope{Assign: &Assign{
		Version: WireVersion, Tiers: sess.tiers, IntervalSec: h.cfg.IntervalSec,
	}}); err != nil {
		return
	}

	for {
		var env Envelope
		if err := dec.Decode(&env); err != nil {
			sess.mu.Lock()
			if sess.conn == conn {
				sess.conn = nil
				sess.enc = nil
			}
			sess.mu.Unlock()
			conn.Close()
			return
		}
		switch {
		case env.Report != nil:
			h.agg.OfferReport(*env.Report)
		case env.Gateway != nil:
			h.agg.OfferGatewayReport(*env.Gateway)
		}
	}
}

func (h *Hub) sendTo(sess *hubSession, env *Envelope) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.conn == nil {
		return fmt.Errorf("statplane: agent disconnected")
	}
	sess.conn.SetWriteDeadline(time.Now().Add(time.Second))
	if err := sess.enc.Encode(env); err != nil {
		sess.conn.Close()
		sess.conn = nil
		sess.enc = nil
		return err
	}
	return nil
}

// Collect implements Plane: push each connected agent its partition's
// samples, emit the (local) gateway report, and assemble under the
// deadline. Unconnected partitions are simply not sampled this interval —
// their tiers' accumulators keep integrating until an agent shows up.
func (h *Hub) Collect(interval int64, now float64) IntervalState {
	h.agg.BeginInterval(interval)

	h.mu.Lock()
	sessions := make([]*hubSession, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()

	for _, sess := range sessions {
		sample := &Sample{Interval: interval, Time: now,
			Tiers: make([]TierStats, len(sess.tiers))}
		for i, t := range sess.tiers {
			sample.Tiers[i] = TierStats{Tier: t, Stats: h.cfg.Sampler.SampleTier(t)}
		}
		if err := h.sendTo(sess, &Envelope{Sample: sample}); err != nil {
			h.pushErrs.Inc()
			continue
		}
		h.pushes.Inc()
	}
	if h.gw != nil {
		h.gw.Emit(interval)
	}
	return h.agg.Assemble(interval, now)
}

// Close stops the hub: listener first, then every agent connection, then
// the handler goroutines.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	sessions := make([]*hubSession, 0, len(h.sessions))
	for _, s := range h.sessions {
		sessions = append(sessions, s)
	}
	h.mu.Unlock()
	err := h.lis.Close()
	for _, sess := range sessions {
		sess.mu.Lock()
		if sess.conn != nil {
			sess.conn.Close()
		}
		sess.mu.Unlock()
	}
	h.wg.Wait()
	return err
}
