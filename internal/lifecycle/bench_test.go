package lifecycle

import (
	"testing"

	"sinan/internal/core"
	"sinan/internal/nn"
)

// The lifecycle benchmarks measure the three costs the design leans on:
// gate validation latency (how long a candidate is examined before it may
// touch traffic), hot-swap cost (the "downtime" of a promotion — one
// atomic pointer store under the history mutex), and the serve-path
// overhead Live adds per predict (which must stay allocation-free so the
// scheduler's 0 allocs/op enumeration path survives the indirection).

func benchLive() (*Live, *fakeModel) {
	d := nn.Dims{N: 4, T: 5, F: 6, M: 5}
	m := &fakeModel{d: d, qos: 200, eval: truthEval(200, 8)}
	return NewLive(m, 1), m
}

// BenchmarkGateValidate is the full validation gate: both models replay the
// pinned holdout and the margin comparison runs. This bounds how long a
// candidate waits at the gate before shadow scoring can begin.
func BenchmarkGateValidate(b *testing.B) {
	d := nn.Dims{N: 4, T: 5, F: 6, M: 5}
	g, err := NewGate(GateConfig{Holdout: buildHoldout(d, 200, 8)})
	if err != nil {
		b.Fatal(err)
	}
	live := &fakeModel{d: d, qos: 200, eval: truthEval(200, 5)}
	cand := &fakeModel{d: d, qos: 200, eval: truthEval(200, 8)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Validate(live, cand); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveSwap is the promotion itself: the window during which a
// model change is in flight. One atomic pointer store plus the history
// push — this is the "swap downtime" number, and it is nanoseconds.
func BenchmarkLiveSwap(b *testing.B) {
	l, m := benchLive()
	m2 := &fakeModel{d: m.d, qos: m.qos, eval: m.eval}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Install(m2)
	}
}

// BenchmarkLiveServeOverhead is the per-predict cost Live adds over calling
// the model directly (no shadow installed — the steady state). The atomic
// load must add zero allocations to the serve path.
func BenchmarkLiveServeOverhead(b *testing.B) {
	l, m := benchLive()
	hold := buildHoldout(m.d, 200, 8)
	in := hold.Inputs()
	ctx := core.NewPredictContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.PredictBatch(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Allocations attributable to Live itself: the wrapped call minus the
	// model's own cost (the fake allocates its output tensor each call).
	direct := testing.AllocsPerRun(1000, func() { m.PredictBatch(ctx, in) })
	wrapped := testing.AllocsPerRun(1000, func() { l.PredictBatch(ctx, in) })
	if wrapped != direct {
		b.Fatalf("Live adds %.0f allocs per predict (wrapped %.0f, direct %.0f)", wrapped-direct, wrapped, direct)
	}
}
