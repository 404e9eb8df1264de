package cluster

import (
	"math/rand"
	"sort"
	"testing"

	"sinan/internal/sim"
)

// blockLeaf fills the one slot and the one queue place of tier "leaf", so
// that every further call to it is refused at admission, synchronously.
func blockLeaf(c *Cluster) {
	for i := 0; i < 2; i++ {
		c.Submit(Seq("leaf", 1), nil)
	}
}

func leafCluster(t *testing.T) (*sim.Engine, *Cluster) {
	return mkCluster(t,
		TierConfig{Name: "front", InitCPU: 4, WorkCV: detCV},
		TierConfig{Name: "leaf", InitCPU: 1, WorkCV: detCV, ConnsPerReplica: 1, MaxQueue: 1},
		TierConfig{Name: "side", InitCPU: 1, WorkCV: detCV},
	)
}

func checkDrained(t *testing.T, c *Cluster) {
	t.Helper()
	for _, tier := range c.Tiers() {
		if tier.Inflight() != 0 || tier.QueueLen() != 0 || tier.Active() != 0 {
			t.Errorf("%v still holds work after the run", tier)
		}
	}
}

// Every child of a parallel stage refused on the spot: the join completes
// inside the loop that issues the children, exactly once.
func TestParallelChildrenAllRefused(t *testing.T) {
	eng, c := leafCluster(t)
	blockLeaf(c)
	calls, dropped := 0, false
	c.Submit(Par("front", 0.01, Seq("leaf", 0.1), Seq("leaf", 0.1), Seq("leaf", 0.1)),
		func(_ float64, d bool) { calls++; dropped = d })
	eng.Run(10)
	if calls != 1 || !dropped {
		t.Fatalf("onDone ran %d times, dropped=%v; want once, dropped", calls, dropped)
	}
	if c.Completed() != 3 || c.DroppedRequests() != 1 || c.Tier("leaf").Dropped() != 3 {
		t.Fatalf("completed %d, dropped %d, leaf refusals %d; want 3, 1, 3",
			c.Completed(), c.DroppedRequests(), c.Tier("leaf").Dropped())
	}
	checkDrained(t, c)
}

// A refused child fails a sequential stage but its later siblings still run.
func TestSequentialChildRefusedSiblingsRun(t *testing.T) {
	eng, c := leafCluster(t)
	blockLeaf(c)
	var lat float64
	dropped := false
	c.Submit(Seq("front", 0.01, Seq("leaf", 0.1), Seq("side", 0.2)),
		func(l float64, d bool) { lat, dropped = l, d })
	eng.Run(10)
	if !dropped {
		t.Fatal("request with a refused child not reported dropped")
	}
	if lat < 0.2 {
		t.Fatalf("latency %v: the sibling after the refused child did not run", lat)
	}
	checkDrained(t, c)
}

// Compiled trees belong to the cluster: one tree serves clusters with
// different tiers at once, as parallel harness workers make it do.
func TestTreeCompiledPerCluster(t *testing.T) {
	tree := Seq("a", 1.0)
	latency := func(cores float64) float64 {
		eng, c := mkCluster(t, TierConfig{Name: "a", InitCPU: cores, MinCPU: 0.1, WorkCV: detCV})
		var lat float64
		c.Submit(tree, func(l float64, _ bool) { lat = l })
		eng.Run(100)
		return lat
	}
	if fast, slow := latency(1), latency(0.5); slow < 1.9*fast {
		t.Fatalf("latency %v at 1 core, %v at 0.5: the second cluster ran on the first one's tier", fast, slow)
	}
}

// Stage records return to the cluster's free list: a second identical burst
// creates no new ones.
func TestCallsAreRecycled(t *testing.T) {
	eng, c := mkCluster(t,
		TierConfig{Name: "a", InitCPU: 4, WorkCV: detCV, ConnsPerReplica: 8},
		TierConfig{Name: "b", InitCPU: 4, WorkCV: detCV},
		TierConfig{Name: "c", InitCPU: 1, WorkCV: detCV},
	)
	tree := Par("a", 0.01, Seq("b", 0.02), Seq("b", 0.02, Seq("c", 0)))
	burst := func() {
		for i := 0; i < 40; i++ {
			c.Submit(tree, nil)
		}
		eng.Run(eng.Now() + 100)
	}
	burst()
	first := len(c.freeCalls)
	if first == 0 {
		t.Fatal("no call was recycled")
	}
	burst()
	if len(c.freeCalls) != first {
		t.Fatalf("free list holds %d calls after the second burst, %d after the first", len(c.freeCalls), first)
	}
	seen := map[*call]bool{}
	for _, k := range c.freeCalls {
		if seen[k] {
			t.Fatal("a call is on the free list twice")
		}
		seen[k] = true
	}
	checkDrained(t, c)
}

// Jobs complete by vFinish, and jobs with equal vFinish in admission order.
func TestJobQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q jobQueue
	var want []psJob
	for seq := int64(0); seq < 500; seq++ {
		j := psJob{vFinish: float64(rng.Intn(40)), seq: seq}
		q.push(j)
		want = append(want, j)
		if rng.Intn(3) == 0 {
			sort.SliceStable(want, func(a, b int) bool { return want[a].vFinish < want[b].vFinish })
			if got := q.pop(); got != want[0] {
				t.Fatalf("popped %+v, want %+v", got, want[0])
			}
			want = want[1:]
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].vFinish < want[b].vFinish })
	for _, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("popped %+v, want %+v", got, w)
		}
	}
	if len(q) != 0 {
		t.Fatalf("%d jobs left", len(q))
	}
}

func TestCallRingFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var r callRing
	var want []*call
	for i := 0; i < 5000; i++ {
		// Pushes outnumber pops, so the ring wraps and grows while occupied.
		if len(want) > 0 && rng.Intn(5) < 2 {
			if got := r.pop(); got != want[0] {
				t.Fatalf("step %d: popped the wrong call", i)
			}
			want = want[1:]
			continue
		}
		k := &call{}
		r.push(k)
		want = append(want, k)
	}
	if r.n != len(want) {
		t.Fatalf("ring holds %d, want %d", r.n, len(want))
	}
	for _, w := range want {
		if r.pop() != w {
			t.Fatal("drain out of order")
		}
	}
}
