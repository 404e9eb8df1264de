package telemetry

import (
	"fmt"
	"testing"
)

// The two hot-path benchmarks report allocs — the bar is 0 allocs/op, which
// TestObserveAllocationFree asserts in the ordinary test run.

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.count")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench.latency_ms")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%4096) + 0.25)
	}
}

// BenchmarkCounterAddParallel measures contended throughput — the registry
// is shared by every RPC handler goroutine in predsvc, so the contended
// number is the honest one.
func BenchmarkCounterAddParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.count")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench.latency_ms")
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0
		for pb.Next() {
			v += 1.5
			h.Observe(v)
		}
	})
}

func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 64; i++ {
		r.Counter(fmt.Sprintf("c%d", i)).Add(int64(i))
	}
	for i := 0; i < 16; i++ {
		h := r.Histogram(fmt.Sprintf("h%d", i))
		for j := 0; j < 1000; j++ {
			h.Observe(float64(j))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Snapshot()
	}
}
