package statplane

import (
	"encoding/binary"
	"net"
	"slices"
	"sync"
	"time"

	"sinan/internal/telemetry"
	"sinan/internal/wire"
)

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
// Agents are keyed by the name their Hello gives: a reconnecting agent
// (same -id) reclaims its partition, so a redial looks like a blip, not a
// new node. Each attach resets the name's dedupe window, so a restarted
// agent process, counting its sequence from 1 again, is heard from its
// first report. A report is filed under its session's name, and only its
// session's tiers are kept.
type Hub struct {
	cfg HubConfig
	agg *Aggregator
	gw  *GatewayReporter
	lis net.Listener

	mu       sync.Mutex
	parts    [][]int
	sessions []*hubSession // in Hello order, session i holding parts[i]; only appended to
	closed   bool
	wg       sync.WaitGroup
}

// hubSession is one agent's partition and the write side of its current
// connection; a redial under the same name takes it over, buffer and all.
type hubSession struct {
	name  string
	tiers []int

	mu  sync.Mutex
	out wire.Conn // out.Conn is nil while the agent is away
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
		cfg:   cfg,
		agg:   NewAggregator(AggregatorOptions{NumTiers: cfg.NumTiers, Deadline: cfg.Deadline}),
		lis:   lis,
		parts: PartitionTiers(cfg.NumTiers, cfg.TiersPerAgent),
	}
	if cfg.Gateway != nil {
		h.agg.ExpectGateway()
		h.gw = NewGatewayReporter("gateway", cfg.Gateway, cfg.IntervalSec,
			&InProcess{Sink: h.agg})
	}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// AttachMetrics implements telemetry.Attacher: the aggregator's plane.*
// instruments land on reg.
func (h *Hub) AttachMetrics(reg *telemetry.Registry) { h.agg.AttachMetrics(reg) }

// Addr returns the hub's listen address.
func (h *Hub) Addr() string { return h.lis.Addr().String() }

// Agents returns how many distinct agents currently hold a partition.
func (h *Hub) Agents() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.sessions)
}

// Partitions returns how many agent slots the hub offers in total.
func (h *Hub) Partitions() int { return len(h.parts) }

// AwaitAgents blocks until n agents hold partitions or the timeout lapses,
// and returns how many do: a run need not start on an empty plane.
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

// handle runs one agent connection: Hello → Assign, then a read loop feeding
// reports into the aggregator until the connection fails or a frame does not
// parse. The write side is the session's, driven by Collect's sample pushes.
func (h *Hub) handle(conn net.Conn) {
	defer h.wg.Done()
	defer conn.Close()
	in := wire.Conn{Conn: conn}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	kind, b, err := in.Recv()
	if err != nil || kind != kindHello || len(b) <= 4 || binary.LittleEndian.Uint32(b) != WireVersion {
		return
	}
	conn.SetReadDeadline(time.Time{})
	sess := h.attach(string(b[4:]), conn)
	if sess == nil {
		return
	}
	rep := Report{Agent: sess.name}
	for {
		kind, b, err := in.Recv()
		if err != nil || kind != kindReport || decodeReport(&rep, b, sess.tiers) != nil {
			break
		}
		h.agg.OfferReport(rep)
	}
	sess.mu.Lock()
	if sess.out.Conn == conn {
		sess.out.Conn = nil
	}
	sess.mu.Unlock()
}

// attach hands conn the named agent's session, opening one on the next free
// partition for a new name, and sends its Assign. It returns nil when the hub
// is closed, or has no partition left and has said so with an empty Assign.
func (h *Hub) attach(name string, conn net.Conn) *hubSession {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	i := slices.IndexFunc(h.sessions, func(s *hubSession) bool { return s.name == name })
	if i < 0 {
		if len(h.sessions) == len(h.parts) {
			h.mu.Unlock()
			out := wire.Conn{Conn: conn}
			out.Send(appendAssign(out.Begin(kindAssign), nil))
			return nil
		}
		i = len(h.sessions)
		h.sessions = append(h.sessions, &hubSession{name: name, tiers: h.parts[i]})
		h.agg.RegisterAgent(name)
	} else {
		h.agg.restartAgent(name)
	}
	sess := h.sessions[i]
	// Locked before the hub is unlocked, so that Collect's next push queues
	// behind the Assign instead of overtaking it.
	sess.mu.Lock()
	h.mu.Unlock()
	defer sess.mu.Unlock()
	if sess.out.Conn != nil {
		sess.out.Close() // stale connection from before a redial
	}
	sess.out.Conn = conn
	sess.send(appendAssign(sess.out.Begin(kindAssign), sess.tiers))
	return sess
}

// send writes one frame to the session's connection, under s.mu. A failed
// write closes the connection, which ends its read loop too.
func (s *hubSession) send(frame []byte) {
	if s.out.Conn == nil {
		return
	}
	s.out.SetWriteDeadline(time.Now().Add(time.Second))
	if s.out.Send(frame) != nil {
		s.out.Close()
		s.out.Conn = nil
	}
}

// Collect implements Plane: push each session its partition's samples, emit
// the (local) gateway report, and assemble under the deadline. A session
// whose agent is away is sampled all the same; a partition no agent has
// claimed is not, so its tiers' accumulators keep integrating until one
// does. Each push is built in its session's buffer: a warmed interval
// allocates nothing.
func (h *Hub) Collect(interval int64, now float64) IntervalState {
	h.agg.BeginInterval(interval)
	h.mu.Lock()
	sessions := h.sessions
	h.mu.Unlock()
	for _, sess := range sessions {
		sess.mu.Lock()
		b := binary.LittleEndian.AppendUint64(sess.out.Begin(kindSample), uint64(interval))
		for _, t := range sess.tiers {
			b = appendTier(b, t, h.cfg.Sampler.SampleTier(t))
		}
		sess.send(b)
		sess.mu.Unlock()
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
	sessions := h.sessions
	h.mu.Unlock()
	err := h.lis.Close()
	for _, sess := range sessions {
		sess.mu.Lock()
		if sess.out.Conn != nil {
			sess.out.Close()
		}
		sess.mu.Unlock()
	}
	h.wg.Wait()
	return err
}
