package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sinan/internal/cluster"
	"sinan/internal/runner"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	s = summarize([]float64{3, 1, 2})
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("summarize(3 values) = %+v", s)
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 {
		t.Errorf("summarize(1 value) = %+v", s)
	}
}

func TestNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.99: 5, 1: 5} {
		if got := nearestRank(vals, q); got != want {
			t.Errorf("nearestRank(q=%v) = %v, want %v", q, got, want)
		}
	}
}

// A run span with two adjacent children, the second of which has a nested
// child of its own: self time is what the direct children leave over.
func TestSelfTimeNestedAndAdjacent(t *testing.T) {
	tr := newTracer()
	tr.startRun("w", 1)
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	tr.begin("run", at(0))
	tr.begin("collect", at(10))
	tr.end(at(30))
	tr.begin("decide", at(30))
	tr.begin("predict", at(40))
	tr.end(at(90))
	tr.end(at(100))
	tr.end(at(200))

	want := []span{
		{Name: "run", Start: 0, End: 200, Parent: -1},
		{Name: "collect", Start: 10, End: 30, Parent: 0},
		{Name: "decide", Start: 30, End: 100, Parent: 0},
		{Name: "predict", Start: 40, End: 90, Parent: 2},
	}
	if !reflect.DeepEqual(tr.spans, want) {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if got := selfTimes(tr.spans); !reflect.DeepEqual(got, []int64{110, 20, 20, 50}) {
		t.Errorf("selfTimes = %v", got)
	}
	budget := layerBudget(tr.spans, tr.runs)["w"]
	if budget["run"]+budget["collect"]+budget["decide"]+budget["predict"] != 200e-6 {
		t.Errorf("layer self times %v do not add up to the run span", budget)
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.begin("x", time.Now())
	tr.end(time.Now())
}

func TestDigestStability(t *testing.T) {
	rows := func() []runner.TraceRow {
		return []runner.TraceRow{
			{Time: 1, RPS: 100, P99MS: 42.5, PredP99MS: 40, PViol: 0.01, Total: 3, Alloc: []float64{1, 2}},
			{Time: 2, RPS: 110, P99MS: 43.5, Drops: 1, Total: 3.2, Alloc: []float64{1.2, 2}, Degraded: true, Brownout: 1},
		}
	}
	base := traceDigest(rows())
	if again := traceDigest(rows()); again != base {
		t.Fatalf("same rows, digests %016x and %016x", base, again)
	}
	// Pinned: result.json digests are compared across commits, so the
	// digest function itself must not drift.
	if base != 0x0686ce06e4158e5c {
		t.Errorf("digest of the reference rows is %016x", base)
	}
	for name, mutate := range map[string]func([]runner.TraceRow){
		"alloc last bit": func(r []runner.TraceRow) { r[1].Alloc[0] = math.Nextafter(r[1].Alloc[0], 2) },
		"degraded flag":  func(r []runner.TraceRow) { r[1].Degraded = false },
		"prediction":     func(r []runner.TraceRow) { r[0].PredP99MS = 0 },
		"row dropped":    func(r []runner.TraceRow) { r[1] = r[0] },
	} {
		r := rows()
		mutate(r)
		if traceDigest(r) == base {
			t.Errorf("%s: digest did not change", name)
		}
	}
}

// An interval is model-driven exactly when the scheduler's candidate
// counter advanced during Decide; only those intervals are sampled.
func TestModelDrivenClassification(t *testing.T) {
	scored, calls := 0, 0
	inner := runner.PolicyFunc("fake", func(st runner.State) runner.Decision {
		calls++
		switch {
		case calls%3 == 0: // a cheap hold: no model query
		default:
			scored += 100 + calls
		}
		return runner.Decision{Alloc: []float64{0.5}, Degraded: calls == 4}
	})
	rec := &runRecord{Workload: "w"}
	p := &timedPolicy{inner: inner, scored: func() int { return scored }, rec: rec,
		tiers: []cluster.TierConfig{{Name: "t", MinCPU: 0.2, MaxCPU: 4}}}
	for i := 0; i < 6; i++ {
		p.Decide(runner.State{})
	}
	var intervals, cands []int
	for _, s := range rec.Decides {
		intervals, cands = append(intervals, s.Interval), append(cands, s.Cands)
		if s.Decide <= 0 {
			t.Errorf("interval %d: no decide time", s.Interval)
		}
	}
	if !reflect.DeepEqual(intervals, []int{0, 1, 3, 4}) || !reflect.DeepEqual(cands, []int{101, 102, 104, 105}) {
		t.Errorf("model-driven intervals %v with candidates %v", intervals, cands)
	}
	if rec.Degraded != 1 || rec.Failed != 1 || len(rec.Problems) != 1 {
		t.Errorf("degraded %d failed %d problems %v", rec.Degraded, rec.Failed, rec.Problems)
	}

	// A baseline policy has no candidate counter: nothing is sampled, but
	// every Decide is still timed.
	rec = &runRecord{}
	p = &timedPolicy{inner: inner, rec: rec}
	p.Decide(runner.State{})
	if len(rec.Decides) != 0 || rec.DecideAll <= 0 {
		t.Errorf("baseline policy: %d samples, total %v", len(rec.Decides), rec.DecideAll)
	}
}

func TestOnGrid(t *testing.T) {
	tc := cluster.TierConfig{MinCPU: 0.2, MaxCPU: 4}
	for v, want := range map[float64]bool{0.2: true, 0.30000000000000004: true, 4: true, 0.1: false, 4.1: false, 0.25: false, math.NaN(): false} {
		if got := onGrid(v, tc); got != want {
			t.Errorf("onGrid(%v) = %v, want %v", v, got, want)
		}
	}
}

func TestJudge(t *testing.T) {
	rel := metricBound{Better: "lower", Bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	for _, c := range []struct {
		name    string
		a, b    summary
		mb      metricBound
		verdict string
	}{
		{"within bound", tight(100), tight(105), rel, verdictOK},
		{"improved", tight(100), tight(50), rel, verdictOK},
		{"past bound", tight(100), tight(111), rel, verdictRegressed},
		{"spread wider than bound", summary{Median: 100, Q1: 90, Q3: 105, N: 10}, tight(101), rel, verdictUnresolved},
		{"higher is better", tight(100), tight(85), metricBound{Better: "higher", Bound: 0.10}, verdictRegressed},
		{"absolute bound, spread wider", tight(0.992), tight(0.991), metricBound{Better: "higher", Bound: 0.002, Abs: true}, verdictUnresolved},
		{"exact metric: spread is seed variety", tight(0.992), tight(0.991), metricBound{Better: "higher", Bound: 0.002, Abs: true, Exact: true}, verdictOK},
		{"absolute bound exact", summary{Median: 0.992, Q1: 0.992, Q3: 0.992}, summary{Median: 0.989, Q1: 0.989, Q3: 0.989}, metricBound{Better: "higher", Bound: 0.002, Abs: true}, verdictRegressed},
	} {
		if _, got := judge(c.a, c.b, c.mb); got != c.verdict {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.verdict)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BENCHMARK.json repeats the tables of metrics.go and workloads.go; the
// driver reads the file, the program prints from the tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	var wantE2E, wantLayers []benchmarkMetric
	for _, m := range endToEnd {
		if m.Contract {
			if m.Abs || m.Workloads != nil || m.Bound <= 0 || m.Bound > 0.25 {
				t.Errorf("%s cannot be a contract metric: %+v", m.Name, m)
			}
			bound := m.Bound
			wantE2E = append(wantE2E, benchmarkMetric{m.Name, m.Unit, m.Better, &bound})
		}
	}
	for _, m := range perLayer {
		wantLayers = append(wantLayers, benchmarkMetric{m.Name, m.Unit, m.Better, nil})
	}
	if !reflect.DeepEqual(f.EndToEnd, wantE2E) {
		t.Errorf("end_to_end differs from the Contract metrics of endToEnd:\n got %+v\nwant %+v", f.EndToEnd, wantE2E)
	}
	if !reflect.DeepEqual(f.PerLayer, wantLayers) {
		t.Errorf("per_layer differs from perLayer")
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %q / %q in the program", i, f.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) || len(f.Command) == 0 {
		t.Errorf("paths %v command %v", f.Paths, f.Command)
	}
}

// The smoke scale drives all four workloads, the traced pass, every probe
// and both output files end to end, so the benchmark cannot rot silently.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end smoke run skipped in short mode")
	}
	dir := t.TempDir()
	res, err := run(options{Seed: 1, Scale: smokeScale, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("output checks failed: %v", res.Problems)
	}
	for _, w := range workloads {
		wr := res.Workloads[w.Name]
		if wr == nil || wr.Runs == 0 || wr.Ops == 0 || wr.Failed != 0 || len(wr.Digests) != wr.Runs {
			t.Fatalf("%s: %+v", w.Name, wr)
		}
		for _, m := range endToEnd {
			s, ok := wr.Metrics[m.Name]
			if _, global := res.Global[m.Name]; global {
				continue
			}
			if ok != m.appliesTo(w.Name) || (ok && !(s.Median > 0)) {
				t.Errorf("%s %s: reported=%v value=%v", w.Name, m.Name, ok, s.Median)
			}
		}
	}
	if in, rpc := res.Workloads[wInproc], res.Workloads[wRPC]; !reflect.DeepEqual(in.Digests, rpc.Digests) {
		t.Errorf("inproc digests %v, rpc digests %v", in.Digests, rpc.Digests)
	}
	for _, m := range perLayer {
		if v, ok := res.Layers[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer metric %s: present=%v value=%v", m.Name, ok, v)
		}
	}
	if len(res.Layers) != len(perLayer) {
		t.Errorf("%d per-layer metrics reported, %d defined", len(res.Layers), len(perLayer))
	}
	if res.Global["setup_s"].Median <= 0 || res.Global["peak_rss_mb"].Median <= 0 {
		t.Errorf("global metrics %+v", res.Global)
	}
	for _, name := range []string{"result.json", "trace.json"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v", name, err)
		}
	}
	back, err := readResult(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if regressed, err := compareFiles(io.Discard, filepath.Join(dir, "result.json"), filepath.Join(dir, "result.json")); err != nil || regressed {
		t.Errorf("a result compared with itself: regressed=%v err=%v", regressed, err)
	}
	if back.Env.Repetitions[wInproc] != res.Env.Repetitions[wInproc] {
		t.Errorf("result.json does not round-trip: %+v", back.Env)
	}

	// One driver-style invocation: the last line carries exactly the
	// contract's end-to-end metrics.
	opt := options{Workload: wHotel, Seed: 2, Scale: smokeScale, OutDir: dir, Budget: time.Millisecond}
	res, err = run(opt)
	if err != nil || !res.Correct {
		t.Fatalf("driver-style run: %v %v", err, res)
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(driverLine(res, opt)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("driver line %+v", line)
	}
	for _, m := range endToEnd {
		v, ok := line.Metrics[m.Name]
		if ok != m.Contract || (ok && (v.Unit != m.Unit || !(v.Value > 0))) {
			t.Errorf("driver line metric %s: present=%v %+v", m.Name, ok, v)
		}
	}
}
