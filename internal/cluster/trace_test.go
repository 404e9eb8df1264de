package cluster

import (
	"math"
	"testing"

	"sinan/internal/sim"
)

func TestTracingRecordsSpans(t *testing.T) {
	eng := &sim.Engine{}
	c := New(eng, sim.NewRNG(1), []TierConfig{
		{Name: "front", InitCPU: 4, WorkCV: detCV},
		{Name: "back", InitCPU: 4, WorkCV: detCV},
	})
	sc := &SpanCollector{}
	c.EnableTracing(sc, 1)
	c.Submit(Seq("front", 0.01, Seq("back", 0.02)), nil)
	eng.Run(5)
	if len(sc.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(sc.Spans))
	}
	var front, back Span
	for _, s := range sc.Spans {
		switch s.Tier {
		case "front":
			front = s
		case "back":
			back = s
		}
	}
	if front.Req != back.Req || front.Req == 0 {
		t.Fatal("spans should share the request id")
	}
	// front duration covers back's subtree.
	if duration(front) < duration(back) {
		t.Fatalf("front %.3f should contain back %.3f", duration(front), duration(back))
	}
	if math.Abs(duration(back)-0.02) > 1e-6 {
		t.Fatalf("back duration = %v, want 0.02", duration(back))
	}
	if front.Dropped || back.Dropped {
		t.Fatal("nothing should be dropped")
	}
}

func TestTracingQueueWait(t *testing.T) {
	eng := &sim.Engine{}
	c := New(eng, sim.NewRNG(2), []TierConfig{
		{Name: "a", InitCPU: 4, ConnsPerReplica: 1, WorkCV: detCV},
	})
	sc := &SpanCollector{}
	c.EnableTracing(sc, 1)
	c.Submit(Seq("a", 1.0), nil)
	c.Submit(Seq("a", 1.0), nil) // waits 1s for the slot
	eng.Run(10)
	if len(sc.Spans) != 2 {
		t.Fatalf("spans = %d", len(sc.Spans))
	}
	waits := []float64{queueWait(sc.Spans[0]), queueWait(sc.Spans[1])}
	if math.Abs(waits[0]) > 1e-9 {
		t.Fatalf("first request should not wait: %v", waits[0])
	}
	if math.Abs(waits[1]-1.0) > 1e-6 {
		t.Fatalf("second request wait = %v, want 1.0", waits[1])
	}
}

func TestTracingSampling(t *testing.T) {
	eng := &sim.Engine{}
	c := New(eng, sim.NewRNG(3), []TierConfig{{Name: "a", InitCPU: 8, WorkCV: detCV}})
	sc := &SpanCollector{}
	c.EnableTracing(sc, 0.1)
	for i := 0; i < 2000; i++ {
		at := float64(i) * 0.001
		eng.At(at, func() { c.Submit(Seq("a", 0.0001), nil) })
	}
	eng.Run(100)
	frac := float64(len(sc.Spans)) / 2000
	if frac < 0.05 || frac > 0.2 {
		t.Fatalf("sampled fraction %v, want ~0.1", frac)
	}
}

// The spans of a request chain show where it queued: the starved tier's
// connection-slot wait dwarfs the roomy one's.
func TestTracingIdentifiesQueueingTier(t *testing.T) {
	eng := &sim.Engine{}
	c := New(eng, sim.NewRNG(4), []TierConfig{
		{Name: "fast", InitCPU: 8, WorkCV: detCV},
		{Name: "slow", InitCPU: 0.4, MinCPU: 0.2, ConnsPerReplica: 2, WorkCV: detCV},
	})
	sc := &SpanCollector{}
	c.EnableTracing(sc, 1)
	tree := Seq("fast", 0.001, Seq("slow", 0.05))
	for i := 0; i < 40; i++ {
		at := float64(i) * 0.02
		eng.At(at, func() { c.Submit(tree, nil) })
	}
	eng.Run(100)
	wait, n := map[string]float64{}, map[string]int{}
	for _, s := range sc.Spans {
		wait[s.Tier] += queueWait(s)
		n[s.Tier]++
	}
	if n["fast"] != 40 || n["slow"] != 40 {
		t.Fatalf("spans per tier = %v, want 40 each", n)
	}
	if wait["slow"]/40 <= wait["fast"]/40+0.01 {
		t.Fatalf("mean queue wait: slow %v s, fast %v s; want slow far above fast", wait["slow"]/40, wait["fast"]/40)
	}
}

func TestTracingDroppedSpans(t *testing.T) {
	eng := &sim.Engine{}
	c := New(eng, sim.NewRNG(5), []TierConfig{
		{Name: "a", InitCPU: 0.2, MinCPU: 0.2, ConnsPerReplica: 1, MaxQueue: 1, WorkCV: detCV},
	})
	sc := &SpanCollector{}
	c.EnableTracing(sc, 1)
	for i := 0; i < 4; i++ {
		c.Submit(Seq("a", 1.0), nil)
	}
	eng.Run(30)
	dropped := 0
	for _, s := range sc.Spans {
		if s.Dropped {
			dropped++
		}
	}
	if dropped != 2 {
		t.Fatalf("dropped spans = %d, want 2", dropped)
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	eng := &sim.Engine{}
	c := New(eng, sim.NewRNG(6), []TierConfig{{Name: "a", InitCPU: 4}})
	c.Submit(Seq("a", 0.01), nil)
	eng.Run(5)
	// No tracer: nothing to assert beyond not crashing; enable with rate 0.
	sc := &SpanCollector{}
	c.EnableTracing(sc, 0)
	c.Submit(Seq("a", 0.01), nil)
	eng.Run(10)
	if len(sc.Spans) != 0 {
		t.Fatal("rate 0 should record nothing")
	}
}

// queueWait is a span's connection-slot wait in seconds.
func queueWait(s Span) float64 { return s.Start - s.Enqueue }

// duration is a span's whole duration: service and downstream.
func duration(s Span) float64 { return s.End - s.Enqueue }
