package main

import "time"

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is the index of the span
// that was open when this one began (-1 for a root); Run indexes
// traceFile.Runs, so the spans of one run share an identifier.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer keeps spans in memory until the benchmark ends. The control loop
// is single-threaded and its calls nest strictly, so an explicit stack of
// open spans is all the causality tracking needed. A nil tracer records
// nothing, which is how the untraced passes run.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	runs  []traceRun
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span at time now (taken by the caller, who usually needs it
// for its own sample too).
func (t *tracer) begin(name string, now time.Time) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(now.Sub(t.epoch)), Parent: parent, Run: len(t.runs) - 1})
}

// startRun gives the spans that follow a new run identifier.
func (t *tracer) startRun(workload string, seed int64) {
	t.runs = append(t.runs, traceRun{Workload: workload, Seed: seed})
}

// end closes the innermost open span.
func (t *tracer) end(now time.Time) {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(now.Sub(t.epoch))
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerBudget sums self time by span name for each run group (the
// workload name of traceFile.Runs[span.Run]), in milliseconds.
func layerBudget(spans []span, runs []traceRun) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	self := selfTimes(spans)
	for i, s := range spans {
		w := runs[s.Run].Workload
		if out[w] == nil {
			out[w] = map[string]float64{}
		}
		out[w][s.Name] += float64(self[i]) / 1e6
	}
	return out
}

// traceRun names what one Run identifier in the span list was.
type traceRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
}

// traceFile is bench/out/trace.json.
type traceFile struct {
	Runs  []traceRun `json:"runs"`
	Spans []span     `json:"spans"`
}
