package main

import (
	"math/rand"
	"testing"
	"time"

	"sinan/internal/cluster"
	"sinan/internal/statplane"
)

type oneTier struct{}

func (oneTier) SampleTier(int) cluster.Stats { return cluster.Stats{CPUUsage: 1} }

// The redial backoff must start over once a session has held a partition:
// session reports that, and only sessions that never got an Assign count
// toward the delay.
func TestSessionReportsAssignmentForBackoffReset(t *testing.T) {
	hub, err := statplane.NewHub("127.0.0.1:0", statplane.HubConfig{
		Sampler: oneTier{}, NumTiers: 1, IntervalSec: 1, Deadline: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	addr := hub.Addr()

	type result struct {
		assigned bool
		err      error
	}
	ended := make(chan result, 1)
	var seq uint64
	go func() {
		assigned, err := session(addr, "node-a", 0, 0, 0, rand.New(rand.NewSource(1)), &seq)
		ended <- result{assigned, err}
	}()
	if got := hub.AwaitAgents(1, 5*time.Second); got != 1 {
		t.Fatalf("agents = %d, want 1", got)
	}
	if st := hub.Collect(0, 1); st.StatsOK != nil || st.Stats[0].CPUUsage != 1 {
		t.Fatalf("the agent did not echo the sample: %+v", st)
	}
	hub.Close()
	if r := <-ended; !r.assigned || r.err == nil {
		t.Fatalf("session after an Assign and a hub shutdown = (%v, %v), want (true, error)", r.assigned, r.err)
	}
	if assigned, err := session(addr, "node-a", 0, 0, 0, nil, &seq); assigned || err == nil {
		t.Fatalf("session against a closed hub = (%v, %v), want (false, error)", assigned, err)
	}

	for fails, want := range map[int]time.Duration{
		0: time.Second, 1: 2 * time.Second, 3: 8 * time.Second, 4: 16 * time.Second, 40: 16 * time.Second,
	} {
		if got := redialDelay(fails); got != want {
			t.Errorf("redialDelay(%d) = %v, want %v", fails, got, want)
		}
	}
}
