package statplane_test

import (
	"net"
	"testing"
	"time"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/core"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/statplane"
	"sinan/internal/telemetry"
	"sinan/internal/tensor"
	"sinan/internal/workload"
)

// safePredictor always predicts comfortably-met QoS so the scheduler stays
// model-driven: the point of the e2e test is the stats plane, not the model.
type safePredictor struct{ d nn.Dims }

func (p *safePredictor) Meta() core.ModelMeta {
	return core.ModelMeta{D: p.d, QoSMS: 200, RMSEValid: 10, Pd: 0.25, Pu: 0.5}
}

func (p *safePredictor) PredictBatch(_ *core.PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	b := in.Batch()
	pred := tensor.New(b, p.d.M)
	pv := make([]float64, b)
	for i := 0; i < b; i++ {
		for m := 0; m < p.d.M; m++ {
			pred.Set(20, i, m)
		}
		pv[i] = 0.01
	}
	return pred, pv, nil
}

// scriptedGate is the wire-fault script of one agent: node-1's report for
// interval dropAt is lost, and node-2's report for interval dupAt is
// transmitted twice (a retransmit racing its original, same sequence
// number).
type scriptedGate struct {
	name          string
	dropAt, dupAt int64
	drops, dups   int // read after the agent's session has ended
}

func (g *scriptedGate) verdict(_ uint64, interval int64) statplane.Verdict {
	switch {
	case interval == g.dropAt && g.name == "node-1":
		g.drops++
		return statplane.Drop
	case interval == g.dupAt && g.name == "node-2":
		g.dups++
		return statplane.Duplicate
	}
	return statplane.Deliver
}

// wireAgent is one sinan-agent session over loopback TCP.
type wireAgent struct {
	gate  *scriptedGate
	conn  net.Conn
	tiers []int
	done  chan struct{}
}

func dialWireAgent(addr, name string, dropAt, dupAt int64) (*wireAgent, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	a := &wireAgent{gate: &scriptedGate{name: name, dropAt: dropAt, dupAt: dupAt}, conn: conn, done: make(chan struct{})}
	go func() {
		defer close(a.done)
		a.tiers, _ = (&statplane.WireAgent{Name: name, Gate: a.gate.verdict}).Session(conn)
	}()
	return a, nil
}

// spyPolicy records the StatsOK mask of every interval before handing the
// state to the real scheduler.
type spyPolicy struct {
	inner runner.Policy
	masks map[int][]bool // interval index -> copy of StatsOK (missing only)
	calls int
}

func (p *spyPolicy) Name() string { return p.inner.Name() }

func (p *spyPolicy) Decide(st runner.State) runner.Decision {
	if st.StatsOK != nil {
		p.masks[p.calls] = append([]bool(nil), st.StatsOK...)
	}
	p.calls++
	return p.inner.Decide(st)
}

// The acceptance test for the distributed stats plane: a full managed run
// on a Hub whose node-agent reports travel over real TCP loopback
// connections, with
// one report dropped in flight and one duplicated. The aggregator must
// flag the lost interval's tier StatsOK=false, swallow the duplicate by
// sequence number, and the scheduler's hold-last-value imputation must
// carry the run to completion without predictor errors or panics.
func TestE2ETCPLoopbackRunWithDropAndDuplicate(t *testing.T) {
	if testing.Short() {
		t.Skip("network + simulation run")
	}
	app := apps.NewHotelReservation()
	n := len(app.Tiers)
	if n < 3 {
		t.Fatalf("need ≥3 tiers for the fault script, have %d", n)
	}
	const (
		dropInterval = 7
		dupInterval  = 9
		duration     = 24
	)

	var (
		hub    *statplane.Hub
		agents []*wireAgent
	)
	plane := func(cl *cluster.Cluster, gw statplane.GatewaySource) statplane.Plane {
		h, err := statplane.NewHub("127.0.0.1:0", statplane.HubConfig{
			Sampler: cl, NumTiers: n, Gateway: gw, IntervalSec: runner.Interval,
			TiersPerAgent: 1, Deadline: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		hub = h
		// The hub hands out partitions in Hello order, so dialling one agent
		// at a time (each waits for its partition) gives node-i tier i.
		for i := 0; i < n; i++ {
			a, err := dialWireAgent(h.Addr(), statplane.AgentName(i), dropInterval, dupInterval)
			if err != nil {
				t.Fatalf("agent %d: %v", i, err)
			}
			agents = append(agents, a)
			if got := h.AwaitAgents(i+1, 5*time.Second); got != i+1 {
				t.Fatalf("agents holding a partition = %d, want %d", got, i+1)
			}
		}
		return h
	}

	d := nn.Dims{N: n, T: 5, F: 6, M: 5}
	spy := &spyPolicy{
		inner: core.NewScheduler(app, &safePredictor{d: d}, core.SchedulerOptions{}),
		masks: map[int][]bool{},
	}
	reg := telemetry.NewRegistry()
	res := runner.Run(runner.Config{
		App: app, Policy: spy, Pattern: workload.Constant(500),
		Duration: duration, Seed: 7, KeepTrace: true,
		Plane: plane, Metrics: reg,
	})
	// Closing the hub closes every agent connection, which ends the agents.
	if err := hub.Close(); err != nil {
		t.Fatalf("hub close: %v", err)
	}
	drops, dups := 0, 0
	for i, a := range agents {
		<-a.done
		a.conn.Close()
		if len(a.tiers) != 1 || a.tiers[0] != i {
			t.Fatalf("%s assigned tiers %v, want [%d]", a.gate.name, a.tiers, i)
		}
		drops += a.gate.drops
		dups += a.gate.dups
	}

	// The wire faults fired exactly as scripted.
	if drops != 1 || dups != 1 {
		t.Fatalf("fault script: drops=%d dups=%d, want 1/1", drops, dups)
	}

	// The lost report surfaced as StatsOK=false for node-1's tier in the
	// dropped interval — and only there.
	mask, ok := spy.masks[dropInterval]
	if !ok {
		t.Fatalf("interval %d never reached the policy with a StatsOK mask; masks=%v",
			dropInterval, spy.masks)
	}
	for tier, okT := range mask {
		if tier == 1 && okT {
			t.Fatalf("tier 1 (node-1's) should be missing at interval %d: %v", dropInterval, mask)
		}
		if tier != 1 && !okT {
			t.Fatalf("unexpected missing tier %d at interval %d: %v", tier, dropInterval, mask)
		}
	}
	if len(spy.masks) != 1 {
		t.Fatalf("exactly one interval should be incomplete, got %v", spy.masks)
	}

	// The duplicated report was deduped by sequence, not double-counted.
	if v := reg.Counter("plane.reports.duplicate").Value(); v < 1 {
		t.Fatalf("duplicate counter = %d, want ≥1", v)
	}
	if v := reg.Counter("plane.intervals.incomplete").Value(); v != 1 {
		t.Fatalf("incomplete intervals = %d, want 1", v)
	}
	if v := reg.Counter("plane.tiers.missing").Value(); v != 1 {
		t.Fatalf("missing tiers = %d, want 1", v)
	}
	if v := reg.Counter("plane.reports.received").Value(); v < int64(n*duration-1) {
		t.Fatalf("received = %d, want ≥ %d", v, n*duration-1)
	}

	// The run itself: every interval decided, traffic served, the scheduler
	// stayed model-driven straight through the imputation path.
	if len(res.Trace) != duration || spy.calls != duration {
		t.Fatalf("trace=%d decisions=%d, want %d", len(res.Trace), spy.calls, duration)
	}
	if res.Completed == 0 {
		t.Fatal("no requests completed")
	}
	s := spy.inner.(*core.Scheduler)
	if s.PredictErrors() != 0 {
		t.Fatalf("stats-plane loss must not surface as predictor errors: %d", s.PredictErrors())
	}
}
