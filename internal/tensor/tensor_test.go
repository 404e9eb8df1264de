package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewAndAccess(t *testing.T) {
	a := New(2, 3)
	a.Set(5, 1, 2)
	if a.At(1, 2) != 5 || a.At(0, 0) != 0 {
		t.Fatal("set/at broken")
	}
	if a.Size() != 6 {
		t.Fatalf("size = %d", a.Size())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	a := New(2, 2)
	for _, fn := range []func(){
		func() { a.At(2, 0) },
		func() { a.At(0) },
		func() { FromSlice([]float64{1, 2}, 3) },
		func() { New(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(2, 2)
	a.Set(1, 0, 0)
	b := a.Clone()
	b.Set(7, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("clone should not alias")
	}
}

func TestMatMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := New(2, 2)
	MatMulInto(c, a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("matmul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)

	at := FromSlice([]float64{1, 4, 2, 5, 3, 6}, 3, 2) // transpose of a
	c1, c2, c3 := New(2, 2), New(2, 2), New(2, 2)
	MatMulInto(c1, a, b)
	MatMulTransAInto(c2, at, b)
	for i := range c1.Data {
		if math.Abs(c1.Data[i]-c2.Data[i]) > 1e-12 {
			t.Fatalf("transA mismatch: %v vs %v", c1.Data, c2.Data)
		}
	}

	bt := FromSlice([]float64{7, 9, 11, 8, 10, 12}, 2, 3) // transpose of b
	MatMulTransBInto(c3, a, bt)
	for i := range c1.Data {
		if math.Abs(c1.Data[i]-c3.Data[i]) > 1e-12 {
			t.Fatalf("transB mismatch: %v vs %v", c1.Data, c3.Data)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("incompatible matmul should panic")
		}
	}()
	MatMulInto(New(2, 3), New(2, 3), New(2, 3))
}

func TestConcatAndSplit(t *testing.T) {
	a := FromSlice([]float64{1, 2, 10, 20}, 2, 2)
	b := FromSlice([]float64{3, 30}, 2, 1)
	c := New(2, 3)
	ConcatInto(c, a, b)
	want := []float64{1, 2, 3, 10, 20, 30}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("concat = %v, want %v", c.Data, want)
		}
	}
	parts := []*Dense{New(2, 2), New(2, 1)}
	SplitInto(c, parts...)
	for i, v := range a.Data {
		if parts[0].Data[i] != v {
			t.Fatal("split part 0 mismatch")
		}
	}
	for i, v := range b.Data {
		if parts[1].Data[i] != v {
			t.Fatal("split part 1 mismatch")
		}
	}
}

func TestConcatSplitRoundTripProperty(t *testing.T) {
	f := func(bRaw, d1Raw, d2Raw uint8, seed int64) bool {
		b, d1, d2 := int(bRaw%4)+1, int(d1Raw%5)+1, int(d2Raw%5)+1
		a := New(b, d1)
		c := New(b, d2)
		for i := range a.Data {
			a.Data[i] = float64((seed+int64(i))%17) * 0.5
		}
		for i := range c.Data {
			c.Data[i] = float64((seed-int64(i))%13) * 0.25
		}
		cat := New(b, d1+d2)
		ConcatInto(cat, a, c)
		parts := []*Dense{New(b, d1), New(b, d2)}
		SplitInto(cat, parts...)
		for i := range a.Data {
			if parts[0].Data[i] != a.Data[i] {
				return false
			}
		}
		for i := range c.Data {
			if parts[1].Data[i] != c.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseHelpers(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{3, 4}, 2)
	AddInPlace(a, b)
	if a.Data[0] != 4 || a.Data[1] != 6 {
		t.Fatal("add broken")
	}
	ScaleInPlace(a, 0.5)
	if a.Data[0] != 2 || a.Data[1] != 3 {
		t.Fatal("scale broken")
	}
	a.Fill(9)
	if a.Data[0] != 9 || a.Data[1] != 9 {
		t.Fatal("fill broken")
	}
	a.Zero()
	if a.Data[0] != 0 {
		t.Fatal("zero broken")
	}
}

func TestParallelFor(t *testing.T) {
	covered := make([]int, 1000)
	var mu sync.Mutex
	ParallelFor(1000, func(s, e int) {
		mu.Lock()
		defer mu.Unlock()
		for i := s; i < e; i++ {
			covered[i]++
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
	ParallelFor(0, func(s, e int) {
		if s != e {
			t.Fatal("empty range should be empty")
		}
	})
}

func TestRepeatRows(t *testing.T) {
	src := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 1, 2, 3)
	dst := New(4, 2, 3)
	RepeatRowsInto(dst, src)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			if dst.Data[i*6+j] != src.Data[j] {
				t.Fatalf("row %d diverged at %d: %v", i, j, dst.Data[i*6+j])
			}
		}
	}
	// Cyclic broadcast: 2 source rows into 6 destination rows.
	src2 := FromSlice([]float64{1, 2, 10, 20}, 2, 2)
	dst2 := New(6, 2)
	RepeatRowsInto(dst2, src2)
	want := []float64{1, 2, 10, 20, 1, 2, 10, 20, 1, 2, 10, 20}
	for i, w := range want {
		if dst2.Data[i] != w {
			t.Fatalf("cyclic repeat[%d] = %v, want %v", i, dst2.Data[i], w)
		}
	}
}

func TestRepeatRowsIntoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RepeatRowsInto accepted a non-multiple destination")
		}
	}()
	RepeatRowsInto(New(3, 2), FromSlice([]float64{1, 2, 3, 4}, 2, 2))
}

func TestView(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	v := View(nil, data, 2, 3)
	if v.Shape[0] != 2 || v.Shape[1] != 3 {
		t.Fatalf("view shape %v", v.Shape)
	}
	v.Data[0] = 42
	if data[0] != 42 {
		t.Fatal("view does not alias the backing slice")
	}
	// Reusing the header must not allocate a new one.
	v2 := View(v, data[:4], 4)
	if v2 != v || v2.Shape[0] != 4 || len(v2.Shape) != 1 {
		t.Fatalf("view reuse: got %p/%v, want %p", v2, v2.Shape, v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("View accepted a mismatched shape")
		}
	}()
	View(nil, data, 4, 2)
}

// The reference kernels below are the loops the blocked kernels replaced,
// kept verbatim: the differential tests hold every output element of the
// production kernels to them bit for bit, which is what "the blocking does
// not change the floating-point operation order" means in practice.

func refMatMulRows(dst, a, b *Dense, k, n, start, end int) {
	for i := start; i < end; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := dst.Data[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
}

func refMatMul(dst, a, b *Dense) {
	refMatMulRows(dst, a, b, a.Shape[1], b.Shape[1], 0, a.Shape[0])
}

// refMatMulTransA is the former serial path of MatMulTransAInto.
func refMatMulTransA(dst, a, b *Dense) {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			crow := dst.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
}

func refMatMulTransB(dst, a, b *Dense) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			s := 0.0
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			crow[j] = s
		}
	}
}

func refIm2Col(dst, x *Dense, k, pad int) {
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h+2*pad-k+1, w+2*pad-k+1
	cols := b * oh * ow
	for r := 0; r < c*k*k; r++ {
		ci := r / (k * k)
		ki := (r / k) % k
		kj := r % k
		row := dst.Data[r*cols : (r+1)*cols]
		for n := 0; n < b; n++ {
			for i := 0; i < oh; i++ {
				out := row[(n*oh+i)*ow : (n*oh+i+1)*ow]
				ii := i + ki - pad
				if ii < 0 || ii >= h {
					for j := range out {
						out[j] = 0
					}
					continue
				}
				xrow := x.Data[((n*c+ci)*h+ii)*w : ((n*c+ci)*h+ii+1)*w]
				for j := 0; j < ow; j++ {
					jj := j + kj - pad
					if jj < 0 || jj >= w {
						out[j] = 0
					} else {
						out[j] = xrow[jj]
					}
				}
			}
		}
	}
}

func refCol2Im(dx, cols *Dense, k, pad int) {
	b, c, h, w := dx.Shape[0], dx.Shape[1], dx.Shape[2], dx.Shape[3]
	oh, ow := h+2*pad-k+1, w+2*pad-k+1
	ncols := b * oh * ow
	for ci := 0; ci < c; ci++ {
		for n := 0; n < b; n++ {
			base := (n*c + ci) * h * w
			for i := 0; i < h*w; i++ {
				dx.Data[base+i] = 0
			}
		}
		for ki := 0; ki < k; ki++ {
			for kj := 0; kj < k; kj++ {
				r := (ci*k+ki)*k + kj
				row := cols.Data[r*ncols : (r+1)*ncols]
				for n := 0; n < b; n++ {
					for i := 0; i < oh; i++ {
						ii := i + ki - pad
						if ii < 0 || ii >= h {
							continue
						}
						src := row[(n*oh+i)*ow : (n*oh+i+1)*ow]
						drow := dx.Data[((n*c+ci)*h+ii)*w : ((n*c+ci)*h+ii+1)*w]
						for j := 0; j < ow; j++ {
							jj := j + kj - pad
							if jj < 0 || jj >= w {
								continue
							}
							drow[jj] += src[j]
						}
					}
				}
			}
		}
	}
}

// randDense fills a tensor with normal samples; a fraction zeros of the
// entries is replaced by zeros, every third of them a negative zero.
func randDense(rng *rand.Rand, zeros float64, shape ...int) *Dense {
	t := New(shape...)
	for i := range t.Data {
		switch {
		case rng.Float64() >= zeros:
			t.Data[i] = rng.NormFloat64()
		case i%3 == 0:
			t.Data[i] = math.Copysign(0, -1)
		}
	}
	return t
}

// sameBits fails unless got and want agree in every bit of every element —
// stricter than ==, which would let a -0 pass for a +0 — or are both NaN
// (which payload survives an operation on two NaNs is the instruction
// selector's choice, not the kernel's).
func sameBits(t *testing.T, what string, got, want *Dense) {
	t.Helper()
	for i := range want.Data {
		if math.IsNaN(got.Data[i]) && math.IsNaN(want.Data[i]) {
			continue
		}
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %v (%#x), reference %v (%#x)", what, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// withProcs runs fn with GOMAXPROCS 1 — every kernel on its serial path —
// and with GOMAXPROCS 4, where products of parallelThreshold multiplies and
// more fan out over row chunks (real goroutines even on a one-CPU machine).
func withProcs(fn func(procs int)) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		fn(procs)
		runtime.GOMAXPROCS(prev)
	}
}

// gemmShapes is every (m, k, n) over sizes that are below, at and one past a
// multiple of the blocking factor 4 — so each blocked dimension meets all of
// its tails, and 64·64·64 lands exactly on parallelThreshold — plus the
// training shapes of the LatencyCNN on SocialNetwork, two cubes whose
// parallel row chunks are uneven, and rows one short of, at, one past and
// past two of mulRows' column blocks.
//
// A·Bᵀ reaches its 4 × 4 tiles from every m, n ≥ 4 here on the serial path;
// on the parallel one the row split decides which rows share a tile:
// 64·64·64 gives four chunks of whole tiles, 67·70·69 chunks of 17, 17, 17
// and 16 rows (tiles, an edge row, an edge column, k mod 4 = 2), 5·1121·63
// chunks too short for any tile.
func gemmShapes() [][3]int {
	dims := []int{1, 3, 4, 5, 7, 8, 9, 64}
	var shapes [][3]int
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	return append(shapes,
		[3]int{8, 54, 8960}, [3]int{8, 8960, 54}, [3]int{54, 8, 8960}, // conv: forward, dW, dcols
		[3]int{64, 1120, 24}, [3]int{1120, 64, 24}, [3]int{64, 24, 1120}, // rh.fc: forward, dW, dx
		[3]int{67, 70, 69}, [3]int{5, 1121, 63},
		[3]int{5, 9, colBlock - 1}, [3]int{4, 7, colBlock}, [3]int{3, 5, colBlock + 1}, [3]int{7, 6, 2*colBlock + 3},
		[3]int{9, 64, 2*colBlock + 3}) // column blocks on the parallel path
}

// The three GEMM kernels agree with the loops they replaced in every bit of
// every output element: for all tails of every blocked dimension, with zeros
// and negative zeros in A (the skip), with an Inf and a NaN in B (dropped
// under a zero of A by the skipping kernels, always propagated by A·Bᵀ), on
// the serial and the parallel path.
func TestGEMMKernelsMatchReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range gemmShapes() {
		m, k, n := s[0], s[1], s[2]
		for _, zeros := range []float64{0, 0.4} {
			a := randDense(rng, zeros, m, k)
			b := randDense(rng, 0, k, n)
			if zeros > 0 {
				// Non-finite weights, wherever they fall: skipped under a
				// zero of A, poisoning the element otherwise.
				b.Data[rng.Intn(len(b.Data))] = math.Inf(1)
				b.Data[rng.Intn(len(b.Data))] = math.NaN()
			}
			at := New(k, m) // a transposed, for Aᵀ·B
			bt := New(n, k) // b transposed, for A·Bᵀ
			for i := 0; i < m; i++ {
				for p := 0; p < k; p++ {
					at.Data[p*m+i] = a.Data[i*k+p]
				}
			}
			for p := 0; p < k; p++ {
				for j := 0; j < n; j++ {
					bt.Data[j*k+p] = b.Data[p*n+j]
				}
			}
			want, wantTA, wantTB := New(m, n), New(m, n), New(m, n)
			refMatMul(want, a, b)
			refMatMulTransA(wantTA, at, b)
			refMatMulTransB(wantTB, a, bt)
			// The two skipping references agree with each other, so one
			// shared kernel can stand in for both.
			sameBits(t, fmt.Sprintf("reference Aᵀ·B vs A·B %v", s), wantTA, want)
			withProcs(func(procs int) {
				what := fmt.Sprintf("%v zeros=%v procs=%d", s, zeros, procs)
				got := New(m, n)
				got.Fill(math.NaN()) // dst must be overwritten, not accumulated into
				MatMulInto(got, a, b)
				sameBits(t, "MatMulInto "+what, got, want)
				got.Fill(math.NaN())
				MatMulTransAInto(got, at, b)
				sameBits(t, "MatMulTransAInto "+what, got, wantTA)
				got.Fill(math.NaN())
				MatMulTransBInto(got, a, bt)
				sameBits(t, "MatMulTransBInto "+what, got, wantTB)
			})
		}
	}
}

// refMatMulAdd is the plain p-then-j loop continuing from what dst holds.
func refMatMulAdd(dst, a, b *Dense) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				dst.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
}

// MatMulAddInto continues every element's sum from the value dst holds, in
// the reference loop's order — started here from a dst of random values,
// zeros of both signs, an Inf and a NaN — and a product split at any row of B
// into MatMulInto followed by MatMulAddInto leaves the bits of the unsplit
// MatMulInto, which is what lets a shared prefix of A's columns be summed
// once (nn.LatencyCNN.ForwardShared).
func TestMatMulAddIntoContinuesTheSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range gemmShapes() {
		m, k, n := s[0], s[1], s[2]
		a := randDense(rng, 0.4, m, k)
		b := randDense(rng, 0, k, n)
		start := randDense(rng, 0.3, m, n)
		start.Data[rng.Intn(len(start.Data))] = math.Inf(-1)
		start.Data[rng.Intn(len(start.Data))] = math.NaN()
		want := start.Clone()
		refMatMulAdd(want, a, b)
		whole := New(m, n)
		refMatMul(whole, a, b)
		cut := rng.Intn(k + 1) // 0 and k leave one side empty: skipped below
		withProcs(func(procs int) {
			what := fmt.Sprintf("%v procs=%d", s, procs)
			got := start.Clone()
			MatMulAddInto(got, a, b)
			sameBits(t, "MatMulAddInto "+what, got, want)
			if cut == 0 || cut == k {
				return
			}
			a1, a2 := New(m, cut), New(m, k-cut)
			for i := 0; i < m; i++ {
				copy(a1.Data[i*cut:(i+1)*cut], a.Data[i*k:i*k+cut])
				copy(a2.Data[i*(k-cut):(i+1)*(k-cut)], a.Data[i*k+cut:(i+1)*k])
			}
			got.Fill(math.NaN())
			MatMulInto(got, a1, FromSlice(b.Data[:cut*n], cut, n))
			MatMulAddInto(got, a2, FromSlice(b.Data[cut*n:], k-cut, n))
			sameBits(t, fmt.Sprintf("split at %d %s", cut, what), got, whole)
		})
	}
}

// refMatMulTransBAdd is the plain dot-product loop continuing from what dst
// holds.
func refMatMulTransBAdd(dst, a, b *Dense) {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := dst.Data[i*n+j]
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[j*k+p]
			}
			dst.Data[i*n+j] = s
		}
	}
}

// MatMulTransBAddInto continues every element's dot product from the value
// dst holds, in the reference loop's order — started here from a dst of random
// values, zeros of both signs, an Inf and a NaN — and a product split at any
// column of A and B into MatMulTransBInto followed by MatMulTransBAddInto
// leaves the bits of the unsplit MatMulTransBInto, which is what lets a
// convolution's weight gradient be summed one sample's patches at a time
// (nn.Conv2D.Backward).
func TestMatMulTransBAddIntoContinuesTheSum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range gemmShapes() {
		m, k, n := s[0], s[1], s[2]
		a := randDense(rng, 0.4, m, k)
		b := randDense(rng, 0, n, k)
		start := randDense(rng, 0.3, m, n)
		start.Data[rng.Intn(len(start.Data))] = math.Inf(-1)
		start.Data[rng.Intn(len(start.Data))] = math.NaN()
		want := start.Clone()
		refMatMulTransBAdd(want, a, b)
		whole := New(m, n)
		refMatMulTransB(whole, a, b)
		cut := rng.Intn(k + 1) // 0 and k leave one side empty: skipped below
		// cols returns columns [lo, hi) of x as a matrix of its own.
		cols := func(x *Dense, lo, hi int) *Dense {
			out := New(x.Shape[0], hi-lo)
			for i := 0; i < x.Shape[0]; i++ {
				copy(out.Data[i*(hi-lo):(i+1)*(hi-lo)], x.Data[i*k+lo:i*k+hi])
			}
			return out
		}
		withProcs(func(procs int) {
			what := fmt.Sprintf("%v procs=%d", s, procs)
			got := start.Clone()
			MatMulTransBAddInto(got, a, b)
			sameBits(t, "MatMulTransBAddInto "+what, got, want)
			if cut == 0 || cut == k {
				return
			}
			got.Fill(math.NaN())
			MatMulTransBInto(got, cols(a, 0, cut), cols(b, 0, cut))
			MatMulTransBAddInto(got, cols(a, cut, k), cols(b, cut, k))
			sameBits(t, fmt.Sprintf("split at %d %s", cut, what), got, whole)
		})
	}
}

// A zero in A removes its product from the sum altogether: 0·Inf and 0·NaN
// are not formed, so one non-finite weight under a dead activation does not
// poison the row. A·Bᵀ has no skip and does propagate.
func TestMatMulZeroSkipSemantics(t *testing.T) {
	a := FromSlice([]float64{0, 2, math.Copysign(0, -1)}, 1, 3)
	b := FromSlice([]float64{math.Inf(1), 3, math.NaN()}, 3, 1)
	c := New(1, 1)
	if MatMulInto(c, a, b); c.Data[0] != 6 {
		t.Fatalf("A·B with zeros over Inf/NaN = %v, want 6", c.Data[0])
	}
	if MatMulTransAInto(c, FromSlice(a.Data, 3, 1), b); c.Data[0] != 6 {
		t.Fatalf("Aᵀ·B with zeros over Inf/NaN = %v, want 6", c.Data[0])
	}
	if MatMulTransBInto(c, a, FromSlice(b.Data, 1, 3)); !math.IsNaN(c.Data[0]) {
		t.Fatalf("A·Bᵀ with zeros over Inf/NaN = %v, want NaN", c.Data[0])
	}
	// Nor does the skip depend on which column block an element is in: a row
	// longer than two blocks, its zeros over an all-Inf and an all-NaN row of B.
	n := 2*colBlock + 3
	wide := New(3, n)
	for j := 0; j < n; j++ {
		wide.Data[j], wide.Data[n+j], wide.Data[2*n+j] = math.Inf(1), float64(j), math.NaN()
	}
	row := New(1, n)
	MatMulInto(row, a, wide)
	for j, v := range row.Data {
		if v != 2*float64(j) {
			t.Fatalf("A·B column %d of %d with zeros over Inf/NaN = %v, want %v", j, n, v, 2*float64(j))
		}
	}
	// An all-zero row sums nothing and stays +0.
	MatMulInto(c, FromSlice([]float64{0, 0}, 1, 2), FromSlice([]float64{-1, -1}, 2, 1))
	if got := c.Data[0]; math.Float64bits(got) != 0 {
		t.Fatalf("empty sum = %v (%#x), want +0", got, math.Float64bits(got))
	}
}

// Im2Col and Col2Im agree bit for bit with the per-element loops they
// replaced: same padding (whole-plane copies) and not, kernels reaching
// wholly into the padding, one sample (what nn.Conv2D passes) and whole
// batches.
func TestIm2ColCol2ImMatchReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	type dims struct{ b, c, h, w int }
	images := []dims{{1, 1, 1, 1}, {2, 1, 3, 1}, {1, 2, 1, 4}, {3, 2, 5, 6}, {2, 3, 6, 5}, {64, 6, 28, 5}}
	for _, im := range images {
		for _, k := range []int{1, 2, 3, 5} {
			for _, pad := range []int{0, 1, 2, 3} {
				oh, ow := im.h+2*pad-k+1, im.w+2*pad-k+1
				if oh <= 0 || ow <= 0 {
					continue
				}
				x := randDense(rng, 0.1, im.b, im.c, im.h, im.w)
				cols := randDense(rng, 0.1, im.c*k*k, im.b*oh*ow)
				wantCols := New(im.c*k*k, im.b*oh*ow)
				refIm2Col(wantCols, x, k, pad)
				wantDx := New(im.b, im.c, im.h, im.w)
				refCol2Im(wantDx, cols, k, pad)
				withProcs(func(procs int) {
					what := fmt.Sprintf("%+v k=%d pad=%d procs=%d", im, k, pad, procs)
					gotCols := New(im.c*k*k, im.b*oh*ow)
					gotCols.Fill(math.NaN()) // every entry must be written
					Im2Col(gotCols, x, k, pad)
					sameBits(t, "Im2Col "+what, gotCols, wantCols)
					gotDx := New(im.b, im.c, im.h, im.w)
					gotDx.Fill(math.NaN())
					Col2Im(gotDx, cols, k, pad)
					sameBits(t, "Col2Im "+what, gotDx, wantDx)
				})
			}
		}
	}
}

// The *Into kernels allocate nothing on the serial path — in particular
// MatMulTransAInto, which used to materialise a transpose for training-sized
// products — at shapes on both sides of parallelThreshold.
func TestIntoKernelsDoNotAllocate(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(3))
	for _, s := range [][3]int{{5, 7, 9}, {64, 1120, 24}} {
		m, k, n := s[0], s[1], s[2]
		a, at := randDense(rng, 0.3, m, k), randDense(rng, 0.3, k, m)
		b, bt := randDense(rng, 0, k, n), randDense(rng, 0, n, k)
		dst := New(m, n)
		for name, fn := range map[string]func(){
			"MatMulInto":          func() { MatMulInto(dst, a, b) },
			"MatMulAddInto":       func() { MatMulAddInto(dst, a, b) },
			"MatMulTransAInto":    func() { MatMulTransAInto(dst, at, b) },
			"MatMulTransBInto":    func() { MatMulTransBInto(dst, a, bt) },
			"MatMulTransBAddInto": func() { MatMulTransBAddInto(dst, a, bt) },
		} {
			if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
				t.Errorf("%s %v allocates %.0f objects per call, want 0", name, s, allocs)
			}
		}
	}
}

// setPortable, on a platform whose leaf routines have an assembly body
// (kernels_amd64_test.go), moves the kernels onto the Go leaves and back.
var setPortable func(on bool)

// BenchmarkGEMM times the three kernels, and the reference loops they
// replaced, at the GEMM shapes of one 64-sample training shard of the
// LatencyCNN on SocialNetwork (28 tiers × 5 timesteps, 8960 patch columns —
// what Conv2D multiplied while it unfolded a shard at once, kept for the
// history of the table), of one sample of that shard (140 patch columns: what
// it multiplies now, 64 times over; conv2's forward product is decide-conv2)
// and of one decision: 172 candidates on a batch-1 trunk, whose per-candidate
// products are rc.fc on the normalised allocations, trunk.fc's rc columns
// continuing the history prefix's sums, and the head. Where the leaves
// are assembly a third side, portable, is the kernel on its Go leaves, so one
// run at -cpu 1 prints the whole table of DESIGN.md §7 "Kernels" (CHANGES.md,
// PRs 15 and 20, has the per-shape history).
func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type kernel struct {
		fn, ref func(dst, a, b *Dense)
		aT, bT  bool    // operand stored transposed
		zeros   float64 // fraction of zeros in A (post-ReLU activations)
		m, k, n int
		name    string
	}
	ab, abAdd, ta, tb, tbAdd := MatMulInto, MatMulAddInto, MatMulTransAInto, MatMulTransBInto, MatMulTransBAddInto
	for _, kn := range []kernel{
		{ab, refMatMul, false, false, 0, 8, 54, 8960, "AB/conv1-forward"},
		{ab, refMatMul, false, false, 0, 8, 72, 8960, "AB/conv2-forward"},
		{ab, refMatMul, false, false, 0.5, 64, 1120, 24, "AB/rhfc-forward"},
		{tb, refMatMulTransB, false, true, 0, 8, 8960, 72, "ABt/conv2-dW"},
		{tb, refMatMulTransB, false, true, 0, 64, 24, 1120, "ABt/rhfc-dx"},
		{ta, refMatMulTransA, true, false, 0, 72, 8, 8960, "AtB/conv2-dcols"},
		{ta, refMatMulTransA, true, false, 0.5, 1120, 64, 24, "AtB/rhfc-dW"},
		{ab, refMatMul, false, false, 0, 172, 28, 16, "AB/decide-rcfc"},
		{abAdd, refMatMulAdd, false, false, 0.5, 172, 16, 32, "AB+/decide-trunkfc"},
		{ab, refMatMul, false, false, 0.5, 172, 32, 5, "AB/decide-head"},
		{ab, refMatMul, false, false, 0, 8, 72, 140, "AB/decide-conv2"},
		{ab, refMatMul, false, false, 0, 8, 54, 140, "AB/sample-conv1-forward"},
		{tbAdd, refMatMulTransBAdd, false, true, 0, 8, 140, 72, "ABt+/sample-conv2-dW"},
		{ta, refMatMulTransA, true, false, 0, 72, 8, 140, "AtB/sample-conv2-dcols"},
	} {
		a, bb := randDense(rng, kn.zeros, kn.m, kn.k), randDense(rng, 0, kn.k, kn.n)
		if kn.aT {
			a.Shape[0], a.Shape[1] = kn.k, kn.m
		}
		if kn.bT {
			bb.Shape[0], bb.Shape[1] = kn.n, kn.k
		}
		dst := New(kn.m, kn.n)
		type side struct {
			name     string
			fn       func(dst, a, b *Dense)
			portable bool
		}
		sides := []side{{"ref", kn.ref, false}, {"kernel", kn.fn, false}}
		if setPortable != nil {
			sides = append(sides, side{"portable", kn.fn, true})
		}
		for _, side := range sides {
			b.Run(fmt.Sprintf("%s-%dx%dx%d/%s", kn.name, kn.m, kn.k, kn.n, side.name), func(b *testing.B) {
				if side.portable {
					setPortable(true)
					defer setPortable(false)
				}
				for i := 0; i < b.N; i++ {
					side.fn(dst, a, bb)
				}
				b.ReportMetric(2*float64(kn.m*kn.k*kn.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
			})
		}
	}
}
