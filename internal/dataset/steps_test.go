package dataset

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"

	"sinan/internal/nn"
)

// specials are values a bitwise store must keep apart (±0, two NaN
// payloads) or keep at all (±Inf, subnormals).
var specials = []float64{
	0, math.Copysign(0, -1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -0x1p-1060, 1.5,
}

// fixture is a dataset holding both kinds of window: the chained windows of
// a Recorder run, then two samples continuing nothing, the second holding
// specials. testdata/whole-windows.gob is this dataset as Save wrote it
// while every window was stored whole (e29c021).
func fixture() *Dataset {
	ds := New(testDims, 2)
	r := NewRecorder(ds, 60)
	for i := 0; i < 10; i++ {
		r.Observe(mkStats(testDims.N, float64(i)), mkPerc(50+float64(i%4)*5), []float64{float64(i), 1, 2})
	}
	rh, lh, rc, ylat := mkSample(3)
	ds.Append(rh, lh, rc, ylat, false)
	for j := range rh {
		rh[j] = specials[j%len(specials)]
	}
	for j := range lh {
		lh[j] = specials[(j+3)%len(specials)]
	}
	ds.Append(rh, lh, rc, ylat, true)
	return ds
}

// win is one sample's history as Append takes it: [F,N,T] and [T,M],
// flattened.
type win struct{ rh, lh []float64 }

// windowFrom lays T steps — F·N stats features, then M percentiles each —
// out as a window.
func windowFrom(d nn.Dims, steps [][]float64) win {
	w := win{make([]float64, d.F*d.N*d.T), make([]float64, d.T*d.M)}
	for t, st := range steps {
		for j := 0; j < d.F*d.N; j++ {
			w.rh[j*d.T+t] = st[j]
		}
		copy(w.lh[t*d.M:(t+1)*d.M], st[d.F*d.N:])
	}
	return w
}

// stepsOf is windowFrom's inverse.
func stepsOf(d nn.Dims, w win) [][]float64 {
	steps := make([][]float64, d.T)
	for t := range steps {
		steps[t] = make([]float64, d.F*d.N+d.M)
		for j := 0; j < d.F*d.N; j++ {
			steps[t][j] = w.rh[j*d.T+t]
		}
		copy(steps[t][d.F*d.N:], w.lh[t*d.M:(t+1)*d.M])
	}
	return steps
}

// specialSteps returns n steps of d whose elements cycle through specials
// (each step holds every special when F·N + M ≥ len(specials)), starting
// at offset.
func specialSteps(d nn.Dims, n, offset int) [][]float64 {
	steps := make([][]float64, n)
	for s := range steps {
		steps[s] = make([]float64, d.F*d.N+d.M)
		for j := range steps[s] {
			steps[s][j] = specials[(offset+s*5+j)%len(specials)]
		}
	}
	return steps
}

// allWindows reads every sample's window back through Inputs.
func allWindows(ds *Dataset) []win {
	in := ds.Inputs()
	rhN, lhN, _ := ds.rowSizes()
	out := make([]win, ds.Len())
	for i := range out {
		out[i] = win{in.RH.Data[i*rhN : (i+1)*rhN], in.LH.Data[i*lhN : (i+1)*lhN]}
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameWindows(a, b []win) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i].rh, b[i].rh) || !sameBits(a[i].lh, b[i].lh) {
			return false
		}
	}
	return true
}

func storedSteps(ds *Dataset) int { return len(ds.steps) / ds.stepSize() }

// appendWindow appends w as a sample with allocation and targets derived
// from i.
func appendWindow(ds *Dataset, w win, i int) {
	rc, ylat := make([]float64, ds.D.N), make([]float64, ds.D.M)
	for j := range rc {
		rc[j] = float64(i + j)
	}
	for j := range ylat {
		ylat[j] = float64(10*i + j)
	}
	ds.Append(w.rh, w.lh, rc, ylat, i%3 == 0)
}

// Windows read back bit for bit, through GatherInto and through Inputs,
// whatever they hold. A chain of windows one step apart stores one step per
// window after the first, NaNs of one payload included; a continuation
// whose overlap differs from what is stored only in the sign of a zero or in
// a NaN's payload stores all T of its steps.
func TestWindowsRoundTripBitForBit(t *testing.T) {
	d := nn.Dims{N: 2, T: 4, F: 6, M: len(specials)} // every special in both parts of every step
	ds := New(d, 5)
	steps := specialSteps(d, 9, 0)
	var want []win
	for s := 0; s+d.T <= len(steps); s++ {
		want = append(want, windowFrom(d, steps[s:s+d.T]))
		appendWindow(ds, want[len(want)-1], s)
	}
	if got := storedSteps(ds); got != len(steps) {
		t.Fatalf("a chain of %d windows over %d steps stored %d", len(want), len(steps), got)
	}
	fn := d.F * d.N
	for i, c := range []struct {
		name     string
		step, at int     // the overlap step altered, and where in it the search starts
		from, to float64 // the first from found is replaced by to; equal: a plain continuation
		stores   int
	}{
		{"sign of a zero, first step's features", 0, 0, 0, math.Copysign(0, -1), d.T},
		{"continuation", 0, 0, 1.5, 1.5, 1},
		{"NaN payload, last overlap step's features", d.T - 2, 0, specials[2], specials[3], d.T},
		{"continuation", 0, 0, 1.5, 1.5, 1},
		{"sign of a zero, a percentile", d.T - 2, fn, 0, math.Copysign(0, -1), d.T},
		{"NaN payload, a percentile", 0, fn, specials[2], specials[3], d.T},
	} {
		next := append(stepsOf(d, want[len(want)-1])[1:], specialSteps(d, 1, 3+i)...)
		replaced := false
		for j := c.at; j < len(next[c.step]) && !replaced; j++ {
			if math.Float64bits(next[c.step][j]) == math.Float64bits(c.from) {
				next[c.step][j], replaced = c.to, true
			}
		}
		if !replaced {
			t.Fatalf("%s: the overlap holds no %v", c.name, c.from)
		}
		before := storedSteps(ds)
		want = append(want, windowFrom(d, next))
		appendWindow(ds, want[len(want)-1], len(want))
		if got := storedSteps(ds) - before; got != c.stores {
			t.Errorf("%s: stored %d steps, want %d", c.name, got, c.stores)
		}
	}
	if !sameWindows(allWindows(ds), want) {
		t.Fatal("Inputs differ from the appended windows")
	}
	rows := []int{3, 0, len(want) - 1, 3, 7}
	var g nn.Inputs
	ds.GatherInto(&g, rows)
	rhN, lhN, rcN := ds.rowSizes()
	for k, i := range rows {
		if !sameBits(g.RH.Data[k*rhN:(k+1)*rhN], want[i].rh) || !sameBits(g.LH.Data[k*lhN:(k+1)*lhN], want[i].lh) ||
			!sameBits(g.RC.Data[k*rcN:(k+1)*rcN], ds.RC[i*rcN:(i+1)*rcN]) {
			t.Fatalf("GatherInto row %d differs from sample %d", k, i)
		}
	}
}

// recorded is a Recorder run of n intervals: its windows chain.
func recorded(n int) *Dataset {
	ds := New(testDims, 3)
	r := NewRecorder(ds, 70)
	for i := 0; i < n; i++ {
		r.Observe(mkStats(testDims.N, float64(i%11)), mkPerc(40+float64(i*7%40)), []float64{float64(i), 2, 3})
	}
	return ds
}

// chainDataset is recorded(n) and then two samples continuing nothing.
func chainDataset(n int) *Dataset {
	ds := recorded(n)
	for i := 1; i <= 2; i++ {
		rh, lh, rc, ylat := mkSample(i)
		ds.Append(rh, lh, rc, ylat, false)
	}
	return ds
}

// Every dataset derived from another — Select (rows out of order and
// repeated), Split, FilterByP99, AppendFrom (into an empty dataset, onto
// samples, onto itself) — holds the windows, allocations and targets of the
// samples it names.
func TestDerivedDatasetsReproduceWindows(t *testing.T) {
	ds := chainDataset(30)
	all := allWindows(ds)
	m, rcN := ds.D.M, ds.D.N
	check := func(what string, sub *Dataset, idx []int) {
		t.Helper()
		if sub.Len() != len(idx) {
			t.Fatalf("%s: %d samples, want %d", what, sub.Len(), len(idx))
		}
		got := allWindows(sub)
		for k, i := range idx {
			if !sameWindows(got[k:k+1], all[i:i+1]) || !sameBits(sub.RC[k*rcN:(k+1)*rcN], ds.RC[i*rcN:(i+1)*rcN]) ||
				!sameBits(sub.YLat[k*m:(k+1)*m], ds.YLat[i*m:(i+1)*m]) || sub.YViol[k] != ds.YViol[i] {
				t.Fatalf("%s: sample %d is not sample %d", what, k, i)
			}
		}
	}
	idx := []int{5, 0, 5, ds.Len() - 1, 3}
	check("Select", ds.Select(idx), idx)
	tr, va := ds.SplitRows(0.7, 3)
	train, val := ds.Split(0.7, 3)
	check("Split train", train, tr)
	check("Split val", val, va)
	var low []int
	for i, p := range ds.P99s() {
		if p <= 60 {
			low = append(low, i)
		}
	}
	if len(low) == 0 || len(low) == ds.Len() {
		t.Fatalf("%d of %d samples at p99 ≤ 60: the filter selects nothing or everything", len(low), ds.Len())
	}
	check("FilterByP99", ds.FilterByP99(60), low)

	every := nn.AllRows(ds.Len())
	fresh := New(ds.D, ds.K)
	fresh.AppendFrom(ds)
	check("AppendFrom into an empty dataset", fresh, every)
	if got, want := storedSteps(fresh), storedSteps(ds); got != want {
		t.Errorf("AppendFrom stored %d steps, its source %d", got, want)
	}
	onto := ds.Select([]int{2})
	onto.AppendFrom(ds)
	check("AppendFrom onto a sample", onto, append([]int{2}, every...))
	self := ds.Select(every)
	self.AppendFrom(self)
	check("AppendFrom onto itself", self, append(every, every...))
}

// A Select result shares its parent's steps. Appending to either side —
// a window continuing the shared chain, which the child stores as one step
// — never changes a window of the other. A Select whose last sample's
// window ends before the last stored step stores a continuation whole, even
// of the steps it ends on.
func TestAppendToSelectLeavesParent(t *testing.T) {
	ds := recorded(12)
	parent := allWindows(ds)
	// cont continues w by one step of specials starting at offset.
	cont := func(w win, offset int) win {
		return windowFrom(ds.D, append(stepsOf(ds.D, w)[1:], specialSteps(ds.D, 1, offset)...))
	}
	last := parent[len(parent)-1]

	sub := ds.Select([]int{ds.Len() - 1})
	before := storedSteps(sub)
	appendWindow(sub, cont(last, 1), 1)
	if got := storedSteps(sub) - before; got != 1 {
		t.Fatalf("a continuation of the chain stored %d steps in the child, want 1", got)
	}
	if !sameWindows(allWindows(ds), parent) {
		t.Fatal("appending to a Select result changed the parent's windows")
	}
	appendWindow(ds, cont(last, 2), 2)
	if !sameWindows(allWindows(sub), []win{last, cont(last, 1)}) {
		t.Fatal("appending to the parent changed a Select result's windows")
	}
	if !sameWindows(allWindows(ds), append(parent, cont(last, 2))) {
		t.Fatal("the parent's continuation reads back wrong")
	}

	first := ds.Select([]int{0})
	next := cont(cont(last, 2), 3)
	before = storedSteps(first)
	appendWindow(first, next, 3)
	if got := storedSteps(first) - before; got != ds.D.T {
		t.Fatalf("a child whose window ends before the last step stored %d steps of a continuation, want %d", got, ds.D.T)
	}
	if !sameWindows(allWindows(first), []win{parent[0], next}) {
		t.Fatal("the child's windows read back wrong")
	}
}

// A file written while every window was stored whole loads into the same
// windows, fields and sharing as the dataset it was written from, and Save
// still writes it byte for byte: the format has not moved.
func TestLoadReadsWholeWindowFile(t *testing.T) {
	data, err := os.ReadFile("testdata/whole-windows.gob")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := fixture()
	if got.Len() != want.Len() || got.D != want.D || got.K != want.K || !reflect.DeepEqual(got.YViol, want.YViol) ||
		!sameBits(got.RC, want.RC) || !sameBits(got.YLat, want.YLat) || !sameWindows(allWindows(got), allWindows(want)) {
		t.Fatal("the file loads into other samples than it was written from")
	}
	if g, w := storedSteps(got), storedSteps(want); g != w {
		t.Errorf("the file loads into %d steps, the dataset held %d", g, w)
	}
	var buf bytes.Buffer
	if err := want.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("Save writes %d bytes that differ from the file's %d", buf.Len(), len(data))
	}
}
