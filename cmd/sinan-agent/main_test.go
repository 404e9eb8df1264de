package main

import (
	"testing"
	"time"

	"sinan/internal/cluster"
	"sinan/internal/statplane"
)

type oneTier struct{}

func (oneTier) SampleTier(int) cluster.Stats { return cluster.Stats{CPUUsage: 1} }

// The redial backoff must start over once a session has held a partition:
// session reports that by returning the partition, and only sessions that
// never got an Assign count toward the delay (wire.AgentRedial, whose
// schedule wire's TestBackoffSchedules pins).
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
		tiers []int
		err   error
	}
	ended := make(chan result, 1)
	agent := &statplane.WireAgent{Name: "node-a"}
	go func() {
		tiers, err := session(addr, agent)
		ended <- result{tiers, err}
	}()
	if got := hub.AwaitAgents(1, 5*time.Second); got != 1 {
		t.Fatalf("agents = %d, want 1", got)
	}
	if st := hub.Collect(0, 1); st.StatsOK != nil || st.Stats[0].CPUUsage != 1 {
		t.Fatalf("the agent did not echo the sample: %+v", st)
	}
	hub.Close()
	if r := <-ended; len(r.tiers) != 1 || r.err == nil {
		t.Fatalf("session after an Assign and a hub shutdown = (%v, %v), want ([0], error)", r.tiers, r.err)
	}
	if tiers, err := session(addr, agent); tiers != nil || err == nil {
		t.Fatalf("session against a closed hub = (%v, %v), want (nil, error)", tiers, err)
	}
}
