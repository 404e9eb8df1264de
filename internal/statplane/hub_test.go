package statplane

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"sinan/internal/cluster"
	"sinan/internal/telemetry"
	"sinan/internal/wire"
)

// agentRun is a WireAgent's session on its own loopback connection.
type agentRun struct {
	conn  net.Conn
	done  chan struct{}
	tiers []int
	err   error
}

// answeredConn closes answered when its first Read returns bytes: the hub
// has begun its Assign, which it sends only once the session is attached.
type answeredConn struct {
	net.Conn
	once     sync.Once
	answered chan struct{}
}

func (c *answeredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.once.Do(func() { close(c.answered) })
	}
	return n, err
}

// startAgent dials the hub and runs a's session in the background,
// returning once the hub has answered the Hello (or the session has ended).
func startAgent(t *testing.T, addr string, a *WireAgent) *agentRun {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("agent %s dial: %v", a.Name, err)
	}
	c := &answeredConn{Conn: conn, answered: make(chan struct{})}
	r := &agentRun{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.tiers, r.err = a.Session(c)
	}()
	select {
	case <-c.answered:
	case <-r.done:
	}
	return r
}

// end hangs up the agent's connection and returns the partition its session
// was assigned.
func (r *agentRun) end() []int {
	r.conn.Close()
	<-r.done
	return r.tiers
}

// rawSession says Hello with the given version and name and returns the
// connection's two directions, for a test that writes the agent's frames
// itself.
func rawSession(t *testing.T, addr string, version uint32, name string) (in, out *wire.Conn) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	in, out = &wire.Conn{Conn: conn}, &wire.Conn{Conn: conn}
	if err := out.Send(append(binary.LittleEndian.AppendUint32(out.Begin(kindHello), version), name...)); err != nil {
		t.Fatal(err)
	}
	return in, out
}

// A hub with live agents must partition the tiers, push samples, and
// assemble complete snapshots; an agent past capacity gets an empty
// assignment; a reconnecting agent reclaims its partition.
func TestHubAssignsSamplesAndAssembles(t *testing.T) {
	sampler := &fixedSampler{}
	h, err := NewHub("127.0.0.1:0", HubConfig{
		Sampler: sampler, NumTiers: 4, Gateway: &fixedGateway{p99: 11},
		IntervalSec: 1, TiersPerAgent: 2, Deadline: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Partitions() != 2 {
		t.Fatalf("partitions = %d, want 2", h.Partitions())
	}

	alpha := &WireAgent{Name: "alpha"}
	a0 := startAgent(t, h.Addr(), alpha)
	a1 := startAgent(t, h.Addr(), &WireAgent{Name: "beta"})
	if got := h.AwaitAgents(2, 5*time.Second); got != 2 {
		t.Fatalf("agents connected = %d, want 2", got)
	}

	st := h.Collect(0, 1.0)
	if st.StatsOK != nil {
		t.Fatalf("interval 0 incomplete: StatsOK=%v", st.StatsOK)
	}
	for i, s := range st.Stats {
		if s.CPUUsage != float64(i+1) {
			t.Fatalf("tier %d stats did not round-trip: %+v", i, s)
		}
	}
	if !st.GatewayOK || st.RPS != 100 || st.Perc.P99() != 11 {
		t.Fatalf("gateway summary wrong: %+v", st)
	}

	// Third agent: no partition left, empty assignment.
	extra := startAgent(t, h.Addr(), &WireAgent{Name: "gamma"})
	<-extra.done
	if extra.tiers != nil || extra.err != ErrNoPartition {
		t.Fatalf("over-capacity agent: tiers %v, err %v; want none, ErrNoPartition", extra.tiers, extra.err)
	}

	// Reconnect: alpha drops and redials under the same name; the next
	// interval must assemble completely again with its sequence intact.
	tiers0 := a0.end()
	a0 = startAgent(t, h.Addr(), alpha)
	st = h.Collect(1, 2.0)
	if st.StatsOK != nil {
		t.Fatalf("post-reconnect interval incomplete: StatsOK=%v", st.StatsOK)
	}
	if tiers := a0.end(); len(tiers) != len(tiers0) || tiers[0] != tiers0[0] {
		t.Fatalf("reclaimed partition %v, want %v", tiers, tiers0)
	}
	if tiers1 := a1.end(); len(tiers0)+len(tiers1) != 4 {
		t.Fatalf("partitions don't cover the cluster: %v + %v", tiers0, tiers1)
	}
}

// A restarted agent process under the same name counts its sequence from 1
// again. After three reports from the old process, the new one's first
// report must complete its interval, not be dropped as a duplicate.
func TestHubHearsRestartedAgent(t *testing.T) {
	reg := telemetry.NewRegistry()
	h, err := NewHub("127.0.0.1:0", HubConfig{
		Sampler: &fixedSampler{}, NumTiers: 1,
		IntervalSec: 1, TiersPerAgent: 1, Deadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.AttachMetrics(reg)
	old := startAgent(t, h.Addr(), &WireAgent{Name: "alpha"})
	if got := h.AwaitAgents(1, 5*time.Second); got != 1 {
		t.Fatalf("agents = %d, want 1", got)
	}
	for i := range 3 {
		if st := h.Collect(int64(i), float64(i+1)); st.StatsOK != nil {
			t.Fatalf("interval %d incomplete: StatsOK=%v", i, st.StatsOK)
		}
	}
	old.end()

	restarted := startAgent(t, h.Addr(), &WireAgent{Name: "alpha"})
	defer restarted.end()
	if st := h.Collect(3, 4); st.StatsOK != nil {
		t.Fatalf("the restarted agent's first report did not count: StatsOK=%v, %d duplicates",
			st.StatsOK, reg.Counter("plane.reports.duplicate").Value())
	}
}

// With an agent missing, Collect must come back inside the deadline with
// that partition's tiers marked StatsOK=false — never hang the loop.
func TestHubToleratesAbsentAgent(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", HubConfig{
		Sampler: &fixedSampler{}, NumTiers: 2,
		IntervalSec: 1, TiersPerAgent: 1, Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	a0 := startAgent(t, h.Addr(), &WireAgent{Name: "only"})
	if got := h.AwaitAgents(1, 5*time.Second); got != 1 {
		t.Fatalf("agents = %d, want 1", got)
	}

	start := time.Now()
	st := h.Collect(0, 1.0)
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("Collect blocked %v on an absent agent", waited)
	}
	if st.StatsOK == nil {
		t.Fatal("second partition never connected; StatsOK must flag it")
	}
	for _, tier := range a0.end() {
		if !st.StatsOK[tier] {
			t.Fatalf("connected agent's tier %d flagged missing: %v", tier, st.StatsOK)
		}
	}
	missing := 0
	for _, ok := range st.StatsOK {
		if !ok {
			missing++
		}
	}
	if missing != 1 {
		t.Fatalf("missing tiers = %d, want 1: %v", missing, st.StatsOK)
	}
}

// A report's identity is its session's. beta holds tiers 0 and 1 and hangs
// up; alpha holds 2 and 3 and answers the sample with a report that lists
// all four. Only alpha's own tiers count: 0 and 1 come back StatsOK=false.
// (Under the gob wire a report named its agent, and one naming beta with
// these tiers made the interval complete.)
func TestHubFilesReportsUnderTheirSession(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", HubConfig{
		Sampler: &fixedSampler{}, NumTiers: 4,
		IntervalSec: 1, TiersPerAgent: 2, Deadline: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	beta := startAgent(t, h.Addr(), &WireAgent{Name: "beta"})
	in, out := rawSession(t, h.Addr(), WireVersion, "alpha")
	if kind, b, err := in.Recv(); err != nil || kind != kindAssign || string(b) != string(appendAssign(nil, []int{2, 3})) {
		t.Fatalf("alpha's Assign: kind %d, body %v, err %v; want tiers [2 3]", kind, b, err)
	}
	if tiers := beta.end(); len(tiers) != 2 || tiers[0] != 0 {
		t.Fatalf("beta held %v, want [0 1]", tiers)
	}

	go func() {
		kind, b, err := in.Recv()
		if err != nil || kind != kindSample {
			return
		}
		rep := binary.LittleEndian.AppendUint64(out.Begin(kindReport), 1)
		rep = append(rep, b[:8]...) // the sample's interval
		for tier := range 4 {
			rep = appendTier(rep, tier, cluster.Stats{CPUUsage: 42})
		}
		out.Send(rep)
	}()
	st := h.Collect(0, 1)
	if st.StatsOK == nil || st.StatsOK[0] || st.StatsOK[1] || !st.StatsOK[2] || !st.StatsOK[3] {
		t.Fatalf("StatsOK = %v, want tiers 0 and 1 missing and alpha's 2 and 3 reported", st.StatsOK)
	}
	if st.Stats[2].CPUUsage != 42 || st.Stats[0].CPUUsage != 0 {
		t.Fatalf("stats %+v, want alpha's rows only", st.Stats)
	}
}

// An agent whose Hello carries another wire version gets no session: the hub
// hangs up without an Assign and no partition is taken.
func TestHubRefusesOldWireVersion(t *testing.T) {
	h, err := NewHub("127.0.0.1:0", HubConfig{Sampler: &fixedSampler{}, NumTiers: 2, IntervalSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	in, _ := rawSession(t, h.Addr(), WireVersion-1, "old")
	if kind, _, err := in.Recv(); err == nil {
		t.Fatalf("the hub answered an old Hello with a frame of kind %d", kind)
	}
	if got := h.Agents(); got != 0 {
		t.Fatalf("agents = %d after an old Hello, want 0", got)
	}
}

// A warmed Hub interval allocates nothing, counted across every goroutine
// (testing.AllocsPerRun reads the process's total): Collect's sample pushes
// are built in each session's frame buffer, the hub's read loops decode
// reports into one Report each, the agents' sessions read and write through
// a buffer per direction, and the aggregator lends its rows as in process.
func TestHubCollectAllocatesNothing(t *testing.T) {
	const tiers, agents = 28, 4
	h, err := NewHub("127.0.0.1:0", HubConfig{
		Sampler: &fixedSampler{}, NumTiers: tiers, Gateway: &fixedGateway{p99: 17},
		IntervalSec: 1, TiersPerAgent: tiers / agents, Deadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := range agents {
		defer startAgent(t, h.Addr(), &WireAgent{Name: AgentName(i)}).end()
	}
	interval := int64(0)
	collect := func() {
		if st := h.Collect(interval, float64(interval+1)); st.StatsOK != nil {
			t.Fatalf("interval %d incomplete: %v", interval, st.StatsOK)
		}
		interval++
	}
	for range 20 {
		collect()
	}
	if got := testing.AllocsPerRun(200, collect); got != 0 {
		t.Fatalf("a warmed Hub interval allocates %.2f objects, want 0", got)
	}
}
