package cluster

// Span is one traced RPC stage execution, the simulator's stand-in for a
// Jaeger span (Fig. 8 of the paper collects metrics through Docker and
// Jaeger). Enqueue is when the request asked the tier for a connection
// slot, Start when CPU service began, End when the stage's subtree
// finished. Queue wait is Start − Enqueue.
type Span struct {
	Req     int64
	Tier    string
	Enqueue float64
	Start   float64
	End     float64
	Dropped bool
}

// QueueWait returns the connection-slot wait in seconds.
func (s Span) QueueWait() float64 { return s.Start - s.Enqueue }

// Duration returns the stage's total duration (service + downstream).
func (s Span) Duration() float64 { return s.End - s.Enqueue }

// Tracer receives sampled spans. Implementations must not retain the Span
// beyond the call unless they copy it (it is passed by value, so the
// default collector just appends).
type Tracer interface {
	Record(Span)
}

// EnableTracing attaches a tracer sampling the given fraction of requests
// (the paper notes production tracing uses sampling). All stages of a
// sampled request are recorded. rate ≤ 0 disables tracing; rate ≥ 1 traces
// everything. Sampling decisions are deterministic given the cluster seed.
func (c *Cluster) EnableTracing(t Tracer, rate float64) {
	c.tracer = t
	c.traceRate = rate
	if c.traceRNG == nil {
		c.traceRNG = c.rng.Fork()
	}
}

// SpanCollector is a Tracer that accumulates spans in memory.
type SpanCollector struct {
	Spans []Span
}

// Record implements Tracer.
func (sc *SpanCollector) Record(s Span) { sc.Spans = append(sc.Spans, s) }
