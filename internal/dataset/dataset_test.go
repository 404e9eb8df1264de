package dataset

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"sinan/internal/cluster"
	"sinan/internal/metrics"
	"sinan/internal/nn"
)

var testDims = nn.Dims{N: 3, T: 4, F: 6, M: 5}

func mkSample(i int) (rh, lh, rc, ylat []float64) {
	d := testDims
	rh = make([]float64, d.F*d.N*d.T)
	lh = make([]float64, d.T*d.M)
	rc = make([]float64, d.N)
	ylat = make([]float64, d.M)
	for j := range rh {
		rh[j] = float64(i*1000 + j)
	}
	for j := range lh {
		lh[j] = float64(i*100 + j)
	}
	for j := range rc {
		rc[j] = float64(i + j)
	}
	for j := range ylat {
		ylat[j] = float64(10*i + j)
	}
	return
}

func TestAppendAndInputs(t *testing.T) {
	ds := New(testDims, 5)
	for i := 0; i < 4; i++ {
		rh, lh, rc, ylat := mkSample(i)
		ds.Append(rh, lh, rc, ylat, i%2 == 0)
	}
	if ds.Len() != 4 {
		t.Fatalf("len = %d", ds.Len())
	}
	in := ds.Inputs()
	if in.Batch() != 4 || in.RH.Shape[1] != testDims.F {
		t.Fatalf("inputs shapes wrong: %v", in.RH.Shape)
	}
	y := ds.Targets()
	if y.At(2, 0) != 20 {
		t.Fatalf("targets wrong: %v", y.At(2, 0))
	}
	if got := ds.ViolationRate(); got != 0.5 {
		t.Fatalf("violation rate = %v", got)
	}
}

func TestAppendSizeChecks(t *testing.T) {
	ds := New(testDims, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-size sample should panic")
		}
	}()
	ds.Append([]float64{1}, nil, nil, nil, false)
}

func TestSelectAndSplit(t *testing.T) {
	ds := New(testDims, 5)
	for i := 0; i < 100; i++ {
		rh, lh, rc, ylat := mkSample(i)
		ds.Append(rh, lh, rc, ylat, false)
	}
	sub := ds.Select([]int{5, 10})
	if sub.Len() != 2 || sub.YLat[0] != 50 {
		t.Fatalf("select broken: %v", sub.YLat[:5])
	}
	train, val := ds.Split(0.9, 42)
	if train.Len() != 90 || val.Len() != 10 {
		t.Fatalf("split sizes %d/%d", train.Len(), val.Len())
	}
	// Deterministic for same seed.
	train2, _ := ds.Split(0.9, 42)
	if train.YLat[0] != train2.YLat[0] {
		t.Fatal("split not deterministic")
	}
}

// Split is the row split copied out: training reads the rows of SplitRows in
// place, so the two must name the same samples in the same order.
func TestSplitIsSelectOfSplitRows(t *testing.T) {
	ds := New(testDims, 5)
	for i := 0; i < 57; i++ {
		rh, lh, rc, ylat := mkSample(i)
		ds.Append(rh, lh, rc, ylat, i%3 == 0)
	}
	train, val := ds.Split(0.8, 7)
	tr, va := ds.SplitRows(0.8, 7)
	if !reflect.DeepEqual(train, ds.Select(tr)) || !reflect.DeepEqual(val, ds.Select(va)) {
		t.Fatal("Split differs from Select of SplitRows")
	}
	if len(tr) != 45 || len(va) != 12 {
		t.Fatalf("SplitRows sizes %d/%d, want 45/12", len(tr), len(va))
	}
}

// Load rejects a file whose slices do not hold Count samples of its dims.
// The Dataset API cannot build such a value, so the cases are files.
func TestLoadRejectsInconsistentDataset(t *testing.T) {
	for name, mutate := range map[string]func(*file){
		"count above rows": func(f *file) { f.Count++ },
		"count below rows": func(f *file) { f.Count-- },
		"short RC":         func(f *file) { f.RC = f.RC[:len(f.RC)-1] },
		"labels short":     func(f *file) { f.YViol = f.YViol[:1] },
		"zero tiers":       func(f *file) { f.D.N = 0 },
		"negative K":       func(f *file) { f.K = -1 },
		// F·N·T wraps to 0 in int arithmetic, which an empty RH would match.
		"overflowing dims": func(f *file) {
			*f = file{D: nn.Dims{N: 1, T: 4, F: 1 << 62, M: 1}, K: 5, Count: 1,
				LH: make([]float64, 4), RC: make([]float64, 1), YLat: make([]float64, 1), YViol: make([]bool, 1)}
		},
	} {
		ds := New(testDims, 5)
		for i := 0; i < 3; i++ {
			rh, lh, rc, ylat := mkSample(i)
			ds.Append(rh, lh, rc, ylat, false)
		}
		f := ds.toFile()
		mutate(f)
		var buf bytes.Buffer
		if err := f.encode(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("%s: Load accepted it", name)
		}
	}
}

// FuzzLoad drives arbitrary bytes through Load: it must return an error or
// a dataset whose windows are the file's, through Inputs and GatherInto,
// that Save and Load carry over unchanged, and on which Targets, SplitRows
// and Select hold — never panic.
func FuzzLoad(f *testing.F) {
	enc := func(fl *file) []byte {
		var buf bytes.Buffer
		if err := fl.encode(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	fl := fixture().toFile()
	valid := enc(fl)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	fl.Count = 9
	f.Add(enc(fl))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var want file
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
			t.Fatalf("Load accepted what gob cannot decode: %v", err)
		}
		in := got.Inputs()
		if !sameBits(in.RH.Data, want.RH) || !sameBits(in.LH.Data, want.LH) || !sameBits(in.RC.Data, want.RC) {
			t.Fatal("Inputs differ from the file's windows")
		}
		if n := got.Len(); n > 0 {
			rows := make([]int, n)
			for k := range rows {
				rows[k] = n - 1 - k
			}
			var g nn.Inputs
			got.GatherInto(&g, rows)
			rhN, lhN, _ := got.rowSizes()
			for k, i := range rows {
				if !sameBits(g.RH.Data[k*rhN:(k+1)*rhN], want.RH[i*rhN:(i+1)*rhN]) ||
					!sameBits(g.LH.Data[k*lhN:(k+1)*lhN], want.LH[i*lhN:(i+1)*lhN]) {
					t.Fatalf("GatherInto row %d differs from the file's window %d", k, i)
				}
			}
		}
		var buf bytes.Buffer
		if err := got.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load refuses what Save wrote: %v", err)
		}
		if !sameWindows(allWindows(again), allWindows(got)) || storedSteps(again) != storedSteps(got) {
			t.Fatal("Save → Load changed the windows or the steps stored")
		}
		got.Targets()
		tr, va := got.SplitRows(0.9, 1)
		got.Select(tr)
		got.Select(va)
	})
}

func TestFilterByP99AndCDF(t *testing.T) {
	ds := New(testDims, 5)
	for i := 0; i < 10; i++ {
		rh, lh, rc, ylat := mkSample(i)
		ds.Append(rh, lh, rc, ylat, false)
	}
	// p99 of sample i is 10i + M-1 = 10i + 4.
	f := ds.FilterByP99(50)
	if f.Len() != 5 {
		t.Fatalf("filter kept %d, want 5", f.Len())
	}
	vals, fracs := ds.LatencyCDF()
	if len(vals) != 10 || fracs[9] != 1 {
		t.Fatal("cdf malformed")
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatal("cdf values not sorted")
		}
	}
}

// Save → Load restores every window bit for bit, the per-sample fields, and
// the sharing: as many steps as the saved dataset stored.
func TestSaveLoadRoundTrip(t *testing.T) {
	ds := fixture()
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() || got.D != ds.D || got.K != ds.K ||
		!reflect.DeepEqual(got.RC, ds.RC) || !reflect.DeepEqual(got.YLat, ds.YLat) || !reflect.DeepEqual(got.YViol, ds.YViol) {
		t.Fatal("round trip changed a per-sample field")
	}
	if !sameWindows(allWindows(got), allWindows(ds)) {
		t.Fatal("round trip changed a window")
	}
	if got, want := storedSteps(got), storedSteps(ds); got != want {
		t.Fatalf("loaded dataset stores %d steps, the saved one %d", got, want)
	}
}

func TestAppendFrom(t *testing.T) {
	a := New(testDims, 5)
	b := New(testDims, 5)
	rh, lh, rc, ylat := mkSample(1)
	a.Append(rh, lh, rc, ylat, false)
	b.Append(rh, lh, rc, ylat, true)
	a.AppendFrom(b)
	if a.Len() != 2 || !a.YViol[1] {
		t.Fatal("append-from broken")
	}
}

func mkStats(n int, base float64) []cluster.Stats {
	out := make([]cluster.Stats, n)
	for i := range out {
		out[i] = cluster.Stats{
			CPUUsage: base + float64(i),
			CPULimit: 2,
			RSS:      100,
			Cache:    50,
			NetRx:    10,
			NetTx:    10,
		}
	}
	return out
}

func mkPerc(p99 float64) metrics.Percentiles {
	var p metrics.Percentiles
	for i := 0; i < metrics.NumPercentiles; i++ {
		p.Values[i] = p99 * (0.9 + 0.025*float64(i))
	}
	p.Values[metrics.NumPercentiles-1] = p99
	p.Count = 100
	return p
}

func TestRecorderProducesSamples(t *testing.T) {
	d := nn.Dims{N: 3, T: 4, F: 6, M: 5}
	ds := New(d, 2)
	r := NewRecorder(ds, 200)
	alloc := []float64{1, 2, 3}
	// T=4 warmup intervals + K=2 for resolution: first sample completes at
	// interval T+K.
	for i := 0; i < 10; i++ {
		r.Observe(mkStats(3, float64(i)), mkPerc(float64(50+i)), alloc)
	}
	// Samples created at t=3..9 (after window full); resolved after 2 more.
	if ds.Len() == 0 {
		t.Fatal("no samples produced")
	}
	wantLen := 5 // t=3..7 resolved by t=9
	if ds.Len() != wantLen {
		t.Fatalf("samples = %d, want %d", ds.Len(), wantLen)
	}
	// Target latency of first sample = percentiles at interval 4 (p99=54).
	if math.Abs(ds.YLat[d.M-1]-54) > 1e-9 {
		t.Fatalf("first sample p99 target = %v, want 54", ds.YLat[d.M-1])
	}
	if ds.YViol[0] {
		t.Fatal("no violation should be recorded below QoS")
	}
	// RC stored correctly.
	if ds.RC[0] != 1 || ds.RC[2] != 3 {
		t.Fatalf("rc = %v", ds.RC[:3])
	}
}

func TestRecorderViolationLabel(t *testing.T) {
	d := nn.Dims{N: 2, T: 2, F: 6, M: 5}
	ds := New(d, 3)
	r := NewRecorder(ds, 100)
	alloc := []float64{1, 1}
	// Warmup 2 intervals, then a violation at interval 4.
	for i := 0; i < 8; i++ {
		p99 := 50.0
		if i == 4 {
			p99 = 500 // violation
		}
		r.Observe(mkStats(2, 1), mkPerc(p99), alloc)
	}
	if ds.Len() < 3 {
		t.Fatalf("too few samples: %d", ds.Len())
	}
	// Sample created at t=1 (window full at t=1) covers t=2..4 → violation.
	// Check: at least one sample labelled violated and one not.
	var anyViol, anyOK bool
	for _, v := range ds.YViol {
		if v {
			anyViol = true
		} else {
			anyOK = true
		}
	}
	if !anyViol || !anyOK {
		t.Fatalf("labels not mixed: %v", ds.YViol)
	}
}

func TestRecorderDropCountsAsViolation(t *testing.T) {
	d := nn.Dims{N: 2, T: 2, F: 6, M: 5}
	ds := New(d, 1)
	r := NewRecorder(ds, 1000)
	alloc := []float64{1, 1}
	r.Observe(mkStats(2, 1), mkPerc(10), alloc)
	r.Observe(mkStats(2, 1), mkPerc(10), alloc)
	p := mkPerc(10)
	p.Drops = 1
	r.Observe(mkStats(2, 1), p, alloc) // resolves the first sample
	if ds.Len() != 1 || !ds.YViol[0] {
		t.Fatal("drop should label the sample as a violation")
	}
}

// Pending samples are recycled once resolved, so a sample must carry nothing
// over from the one whose buffers it took: every field of every sample is
// what a fresh allocation per interval recorded — the allocation and window
// of its own interval, the next interval's clipped latency, a violation label
// from its own K intervals only — and no more sample records exist than are
// ever pending at once. The dataset stores the run's intervals once each:
// samples + T − 1 steps.
func TestRecorderRecyclesPendingSamples(t *testing.T) {
	d := nn.Dims{N: 2, T: 2, F: 6, M: 5}
	const k, steps, qos = 3, 20, 100.0
	ds := New(d, k)
	r := NewRecorder(ds, qos)
	p99 := func(t int) float64 {
		if t == 5 || t == 12 {
			return 500 // a violation, clipped to 2.5×QoS when recorded
		}
		return 50 + float64(t)
	}
	for i := 0; i < steps; i++ {
		r.Observe(mkStats(d.N, float64(i)), mkPerc(p99(i)), []float64{float64(i), float64(2 * i)})
		if n := len(r.pending) + len(r.free); n > k+1 {
			t.Fatalf("interval %d: %d sample records alive, want at most %d", i, n, k+1)
		}
	}
	if want := steps - (d.T - 1) - k; ds.Len() != want {
		t.Fatalf("samples = %d, want %d", ds.Len(), want)
	}
	if got, want := storedSteps(ds), ds.Len()+d.T-1; got != want {
		t.Fatalf("%d samples stored as %d steps, want %d: one per interval", ds.Len(), got, want)
	}
	rhN, in := d.F*d.N*d.T, ds.Inputs()
	for s := 0; s < ds.Len(); s++ {
		at := s + d.T - 1 // the interval the sample was created in
		if rc := ds.RC[s*d.N : (s+1)*d.N]; rc[0] != float64(at) || rc[1] != float64(2*at) {
			t.Fatalf("sample %d: rc = %v, want the allocation of interval %d", s, rc, at)
		}
		for n := 0; n < d.N; n++ {
			for tt := 0; tt < d.T; tt++ {
				got := in.RH.Data[s*rhN+(ChanCPUUsage*d.N+n)*d.T+tt]
				if want := float64(at-d.T+1+tt) + float64(n); got != want {
					t.Fatalf("sample %d: cpu usage of tier %d at window step %d = %v, want %v", s, n, tt, got, want)
				}
			}
		}
		if got, want := ds.YLat[s*d.M+d.M-1], math.Min(p99(at+1), 2.5*qos); got != want {
			t.Fatalf("sample %d: target p99 = %v, want %v", s, got, want)
		}
		viol := false
		for f := at + 1; f <= at+k; f++ {
			viol = viol || p99(f) > qos
		}
		if ds.YViol[s] != viol {
			t.Fatalf("sample %d: violation label %v, want %v", s, ds.YViol[s], viol)
		}
	}
}
