package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("x.count") != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("x.level")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2.0 {
		t.Fatalf("gauge = %g, want 2", g.Value())
	}
	g.SetMax(1.0) // below current: no-op
	if g.Value() != 2.0 {
		t.Fatalf("SetMax lowered the gauge to %g", g.Value())
	}
	g.SetMax(7.0)
	if g.Value() != 7.0 {
		t.Fatalf("SetMax = %g, want 7", g.Value())
	}
}

func TestLabelledNames(t *testing.T) {
	if got := Name("faults.injected", "kind", "outage"); got != "faults.injected{kind=outage}" {
		t.Fatalf("Name = %q", got)
	}
	// Label order must not matter.
	a := Name("m", "b", "2", "a", "1")
	b := Name("m", "a", "1", "b", "2")
	if a != b || a != "m{a=1,b=2}" {
		t.Fatalf("label canonicalisation: %q vs %q", a, b)
	}
	r := NewRegistry()
	if r.Counter("m", "a", "1") != r.Counter("m", "a", "1") {
		t.Fatal("same labels returned different instruments")
	}
	if r.Counter("m", "a", "1") == r.Counter("m", "a", "2") {
		t.Fatal("different labels shared an instrument")
	}
}

func TestKindCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on counter/gauge name collision")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Gauge("x")
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i)) // 1..1000 ms
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-500500) > 1e-6 {
		t.Fatalf("sum = %g", h.Sum())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %g", h.Max())
	}
	bound := quantileErrorBound
	for _, tc := range []struct{ q, exact float64 }{
		{0.50, 500}, {0.95, 950}, {0.99, 990}, {0.999, 999},
	} {
		got := h.Quantile(tc.q)
		if got < tc.exact/bound || got > tc.exact*bound {
			t.Errorf("q%.3f = %g, want within [%g, %g]", tc.q, got, tc.exact/bound, tc.exact*bound)
		}
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-3)
	h.Observe(math.NaN())
	h.Observe(1e12) // overflow bucket
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	s := snapshotHist(&h)
	if s.Count != 4 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
	// Underflow quantiles report 0, overflow reports the histogram ceiling.
	if q := h.Quantile(0.25); q != 0 {
		t.Fatalf("underflow quantile = %g, want 0", q)
	}
	if q := h.Quantile(1.0); q != histMax {
		t.Fatalf("overflow quantile = %g, want %g", q, histMax)
	}
	var b bytes.Buffer
	snap := &Snapshot{Histograms: map[string]*HistSnapshot{"h": s}}
	if err := snap.WriteJSON(&b); err != nil {
		t.Fatalf("snapshot with overflow bucket is not valid JSON: %v", err)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("req.total")
	h := r.Histogram("req.latency_ms")
	g := r.Gauge("req.inflight")
	c.Add(3)
	g.Set(2)
	h.Observe(10)
	h.Observe(20)
	s1 := r.Snapshot()

	c.Add(7)
	g.Set(5)
	h.Observe(40)
	s2 := r.Snapshot()

	if s1.Counters["req.total"] != 3 || s2.Counters["req.total"] != 10 {
		t.Fatalf("counter snapshots = %d, %d, want 3, 10", s1.Counters["req.total"], s2.Counters["req.total"])
	}
	if s1.Gauges["req.inflight"] != 2 || s2.Gauges["req.inflight"] != 5 {
		t.Fatalf("gauge snapshots = %g, %g, want 2, 5", s1.Gauges["req.inflight"], s2.Gauges["req.inflight"])
	}
	h1, h2 := s1.Histograms["req.latency_ms"], s2.Histograms["req.latency_ms"]
	if h1.Count != 2 || h2.Count != 3 || math.Abs(h2.Sum-70) > 1e-9 || h2.Max != 40 {
		t.Fatalf("histogram snapshots: %+v then %+v", h1, h2)
	}
}

func TestChildSnapshotPrefixes(t *testing.T) {
	root := NewRegistry()
	root.Counter("top").Inc()
	child := root.Child("run-a")
	child.Counter("inner").Add(2)
	s := root.Snapshot()
	if s.Counters["top"] != 1 || s.Counters["run-a/inner"] != 2 {
		t.Fatalf("snapshot = %+v", s.Counters)
	}
	// Child alone sees only its own namespace.
	cs := child.Snapshot()
	if len(cs.Counters) != 1 || cs.Counters["inner"] != 2 {
		t.Fatalf("child snapshot = %+v", cs.Counters)
	}
	// Group always makes a fresh namespace.
	g1 := root.Group("suite")
	g2 := root.Group("suite")
	if g1 == g2 {
		t.Fatal("Group returned the same registry twice")
	}
	g1.Counter("n").Inc()
	g2.Counter("n").Inc()
	s = root.Snapshot()
	if s.Counters["suite#1/n"] != 1 || s.Counters["suite#2/n"] != 1 {
		t.Fatalf("group snapshot = %+v", s.Counters)
	}
}

// TestSnapshotJSONDeterministic: equal registries marshal to identical
// bytes (map keys are sorted by encoding/json) — the property the harness
// determinism test builds on.
func TestSnapshotJSONDeterministic(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		// Register in different orders; the snapshot must not care.
		names := []string{"b.count", "a.count", "c.count"}
		for _, n := range names {
			r.Counter(n).Add(int64(len(n)))
		}
		h := r.Histogram("lat_ms")
		for i := 0; i < 100; i++ {
			h.Observe(float64(i))
		}
		r.Gauge("level").Set(3)
		return r
	}
	var b1, b2 bytes.Buffer
	if err := mk().Snapshot().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := mk().Snapshot().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("equal registries marshalled differently:\n%s\nvs\n%s", b1.String(), b2.String())
	}
}

// TestConcurrentInstruments hammers one counter, gauge, and histogram from
// GOMAXPROCS goroutines (run under -race) and checks the totals.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	gm := r.Gauge("gmax")
	h := r.Histogram("h")
	workers := runtime.GOMAXPROCS(0)
	const per = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				gm.SetMax(float64(w*per + i))
				h.Observe(float64(i%1000) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	want := int64(workers * per)
	if c.Value() != want {
		t.Fatalf("counter = %d, want %d", c.Value(), want)
	}
	if g.Value() != float64(want) {
		t.Fatalf("gauge = %g, want %d", g.Value(), want)
	}
	if gm.Value() != float64(want-1) {
		t.Fatalf("max gauge = %g, want %d", gm.Value(), want-1)
	}
	if h.Count() != uint64(want) {
		t.Fatalf("histogram count = %d, want %d", h.Count(), want)
	}
	if math.Abs(h.Sum()-float64(want)*(499.5+0.5)) > 1e-3 {
		t.Fatalf("histogram sum = %g", h.Sum())
	}
}

// TestConcurrentRegistration races instrument lookup/creation against
// snapshots (run under -race): same-name lookups must converge on one
// instrument and snapshots must never observe a torn table.
func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter(fmt.Sprintf("c%d", i%17)).Inc()
				r.Histogram("h", "w", fmt.Sprintf("%d", i%3)).Observe(float64(i))
				if i%10 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	var total int64
	for _, v := range s.Counters {
		total += v
	}
	if total != 8*200 {
		t.Fatalf("counter total = %d, want %d", total, 8*200)
	}
}

// TestSnapshotDuringWriteConsistency: a snapshot taken while writers are
// active must be internally consistent — bucket counts sum to the reported
// Count, and JSON encoding round-trips.
func TestSnapshotDuringWriteConsistency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	c := r.Counter("c")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64(i % 5000))
				c.Inc()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		s := r.Snapshot()
		hs := s.Histograms["h"]
		var bucketSum uint64
		for _, b := range hs.Buckets {
			bucketSum += b.Count
		}
		if bucketSum != hs.Count {
			t.Fatalf("snapshot %d: bucket sum %d != count %d", i, bucketSum, hs.Count)
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		var round Snapshot
		if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
			t.Fatalf("snapshot %d does not round-trip: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestObserveAllocationFree is the hot-path guard: Counter.Add, Gauge.Set,
// and Histogram.Observe must not allocate.
func TestObserveAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3.5) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.SetMax(4) }); n != 0 {
		t.Errorf("Gauge.SetMax allocates %.1f/op", n)
	}
	v := 0.0
	if n := testing.AllocsPerRun(1000, func() { v += 1.7; h.Observe(v) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op", n)
	}
}

func TestHTTPExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("served").Add(12)
	r.Histogram("lat_ms").Observe(3.5)
	srv, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, path := range []string{"/metrics", "/debug/vars"} {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var snap Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v", path, err)
		}
		if snap.Counters["served"] != 12 {
			t.Fatalf("GET %s: served = %d", path, snap.Counters["served"])
		}
		if snap.Histograms["lat_ms"].Count != 1 {
			t.Fatalf("GET %s: histogram missing", path)
		}
	}
	// pprof index must answer too (the -metrics-addr endpoint doubles as the
	// live profiling port).
	resp, err := http.Get("http://" + addr.String() + "/debug/pprof/")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %v (status %v)", err, resp)
	}
	resp.Body.Close()
}
