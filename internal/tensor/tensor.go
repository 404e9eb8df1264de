// Package tensor provides the minimal dense float64 tensor the neural
// network stack needs: shape-checked element access, matrix multiplication,
// and simple elementwise helpers. Layouts are row-major; the last axis is
// contiguous.
package tensor

import "fmt"

// Dense is a row-major dense tensor.
type Dense struct {
	Shape []int
	Data  []float64
}

// New creates a zero-filled tensor with the given shape.
func New(shape ...int) *Dense {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %v", shape))
		}
		n *= s
	}
	return &Dense{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data (not copied) in a tensor of the given shape.
func FromSlice(data []float64, shape ...int) *Dense {
	t := &Dense{Shape: append([]int(nil), shape...), Data: data}
	if t.Size() != len(data) {
		panic(fmt.Sprintf("tensor: shape %v incompatible with %d elements", shape, len(data)))
	}
	return t
}

// Size returns the total number of elements.
func (t *Dense) Size() int {
	n := 1
	for _, s := range t.Shape {
		n *= s
	}
	return n
}

// Clone returns a deep copy.
func (t *Dense) Clone() *Dense {
	return &Dense{Shape: append([]int(nil), t.Shape...), Data: append([]float64(nil), t.Data...)}
}

// Zero sets all elements to zero.
func (t *Dense) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Dense) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given indices.
func (t *Dense) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set assigns the element at the given indices.
func (t *Dense) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Dense) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: %d indices for shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// Ensure returns t resized to the given shape, reusing t's backing storage
// when its capacity allows. The contents of the returned tensor are
// unspecified (callers must overwrite them). A nil t allocates fresh. This
// is the buffer-reuse primitive the nn workspace code is built on: after
// the first call with a given shape, subsequent calls are allocation-free.
func Ensure(t *Dense, shape ...int) *Dense {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			// Split out so shape does not escape through the format call:
			// Ensure call sites build their shape lists on the stack.
			panicNonPositiveDim(s)
		}
		n *= s
	}
	if t == nil {
		t = &Dense{}
	}
	if cap(t.Data) < n {
		t.Data = make([]float64, n)
	}
	t.Data = t.Data[:n]
	if cap(t.Shape) < len(shape) {
		t.Shape = make([]int, len(shape))
	}
	t.Shape = t.Shape[:len(shape)]
	copy(t.Shape, shape)
	return t
}

func panicNonPositiveDim(s int) {
	panic(fmt.Sprintf("tensor: non-positive dim %d", s))
}

// MatMulInto computes C = A·B into dst, which must be [m,n]. dst is
// overwritten; it must not alias a or b.
func MatMulInto(dst, a, b *Dense) { matMul(dst, a, b, false) }

// MatMulAddInto computes C += A·B in place on dst [m,n], which must not alias
// a or b. Each element continues its sum where dst left it, by mulRows' rule:
// with A = [A₁ A₂] and B = [B₁; B₂] split at any p, MatMulInto(dst, A₁, B₁)
// followed by MatMulAddInto(dst, A₂, B₂) leaves the bits of
// MatMulInto(dst, A, B).
func MatMulAddInto(dst, a, b *Dense) { matMul(dst, a, b, true) }

func matMul(dst, a, b *Dense, acc bool) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmul shapes %v × %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul dst %v for %v × %v", dst.Shape, a.Shape, b.Shape))
	}
	// The closure is built only on the parallel path, so small (serial)
	// products stay allocation-free.
	if parallelizable(m * k * n) {
		ParallelFor(m, func(start, end int) { mulRows(dst.Data, a.Data, b.Data, k, 1, k, n, start, end, acc) })
		return
	}
	mulRows(dst.Data, a.Data, b.Data, k, 1, k, n, 0, m, acc)
}

// colBlock is the width of the column blocks mulRows walks a long row in.
// Unblocked, a k × 8960 conv product streams all of B through L1 once per row
// of A and the vector leaves wait on L2; blocked, the C tile (2 KB) stays in
// L1 and the k × 256 panel of B (147 KB at k = 72) in L2 while the m rows
// re-read it. Widths 256 to 1024 measure alike (DESIGN.md §7 has the sweep);
// 256 is the one whose panel also fits a 256 KB L2. The Go leaves run at the
// same speed either way, so every platform shares the one loop.
const colBlock = 256

// mulRows computes rows [start, end) of C[m,n] = A·B, reading A's element
// (i, p) at a[i*si+p*sp]: strides (k, 1) are a row-major A, strides (1, m)
// are Aᵀ given as the row-major [k,m], so MatMulInto and MatMulTransAInto
// are one kernel and neither ever materialises a transpose.
//
// Every output element is the sum, started from +0 — or, with acc set, from
// the value dst holds — and taken in ascending p, of the products
// a[i,p]·b[p,j] whose a[i,p] is not zero (±0); a product whose a is zero is
// not formed at all, so a zero activation times an Inf or NaN weight
// contributes nothing. Per block of colBlock columns and row of A,
// the kernel gathers the row's non-zero entries four at a time and folds each
// group into the output block in one pass (axpy4) — one load and one store of
// C per four multiply-adds. A group's adds are taken in p order and a block
// still runs p ascending, so each element sees exactly the operation sequence
// of the plain p-then-j loop (the reference in tensor_test.go): same bits.
func mulRows(dst, a, b []float64, si, sp, k, n, start, end int, acc bool) {
	for j0 := 0; j0 < n; j0 += colBlock {
		w := min(colBlock, n-j0)
		for i := start; i < end; i++ {
			crow := dst[i*n+j0 : i*n+j0+w]
			if !acc {
				clear(crow)
			}
			var av [4]float64
			var bo [4]int
			cnt := 0
			for p, ai := 0, i*si; p < k; p, ai = p+1, ai+sp {
				v := a[ai]
				if v == 0 {
					continue
				}
				av[cnt], bo[cnt] = v, p*n+j0
				if cnt++; cnt == 4 {
					axpy4(crow, &av, b[bo[0]:bo[0]+w], b[bo[1]:bo[1]+w], b[bo[2]:bo[2]+w], b[bo[3]:bo[3]+w])
					cnt = 0
				}
			}
			for q := 0; q < cnt; q++ {
				axpy(crow, av[q], b[bo[q]:bo[q]+w])
			}
		}
	}
}

// MatMulTransAInto computes C = Aᵀ·B into dst, which must be [m,n]. dst is
// overwritten; it must not alias a or b. It is MatMulInto's kernel reading A
// by columns; nothing is allocated on the serial path.
func MatMulTransAInto(dst, a, b *Dense) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: matmulᵀa shapes %v × %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulᵀa dst %v for %v × %v", dst.Shape, a.Shape, b.Shape))
	}
	if parallelizable(k * m * n) {
		ParallelFor(m, func(start, end int) { mulRows(dst.Data, a.Data, b.Data, 1, m, k, n, start, end, false) })
		return
	}
	mulRows(dst.Data, a.Data, b.Data, 1, m, k, n, 0, m, false)
}

// MatMulTransBInto computes C = A·Bᵀ into dst, which must be [m,n]. dst is
// overwritten; it must not alias a or b.
func MatMulTransBInto(dst, a, b *Dense) { matMulTransB(dst, a, b, false) }

// MatMulTransBAddInto computes C += A·Bᵀ in place on dst [m,n], which must not
// alias a or b. Each element continues its dot product where dst left it, by
// mulTransBRows' rule: with A = [A₁ A₂] and B = [B₁ B₂] split at any column p,
// MatMulTransBInto(dst, A₁, B₁) followed by MatMulTransBAddInto(dst, A₂, B₂)
// leaves the bits of MatMulTransBInto(dst, A, B).
func MatMulTransBAddInto(dst, a, b *Dense) { matMulTransB(dst, a, b, true) }

func matMulTransB(dst, a, b *Dense, acc bool) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: matmulᵀb shapes %v × %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulᵀb dst %v for %v × %v", dst.Shape, a.Shape, b.Shape))
	}
	if parallelizable(m * k * n) {
		ParallelFor(m, func(start, end int) { mulTransBRows(dst.Data, a.Data, b.Data, k, n, start, end, acc) })
		return
	}
	mulTransBRows(dst.Data, a.Data, b.Data, k, n, 0, m, acc)
}

// mulTransBRows computes rows [start, end) of C[m,n] = A·Bᵀ: every output
// element is the dot product of a row of A and a row of B, summed in
// ascending p with no zero skip from the value dst holds — which is +0 unless
// acc is set. One dot product is a single serial add chain, bound by the add
// latency, so the kernel runs sixteen side by side — four rows of A against
// four rows of B (dotTile) — and four (dot4) or one (dot) on the rows and
// columns past the last full tile. Each chain is still its own p-ordered sum:
// the same bits as the reference loop in tensor_test.go.
func mulTransBRows(dst, a, b []float64, k, n, start, end int, acc bool) {
	if !acc {
		clear(dst[start*n : end*n])
	}
	i := start
	for ; i+4 <= end; i += 4 {
		for j := 0; j+4 <= n; j += 4 {
			var t [16]float64
			for r := 0; r < 4; r++ {
				copy(t[4*r:4*r+4], dst[(i+r)*n+j:])
			}
			dotTile(&t, a[i*k:(i+4)*k], b[j*k:(j+4)*k], k)
			for r := 0; r < 4; r++ {
				copy(dst[(i+r)*n+j:(i+r)*n+j+4], t[4*r:])
			}
		}
	}
	// Edges: rows below i are done up to column n − n mod 4, the rest not at all.
	for r := start; r < end; r++ {
		j := n &^ 3
		if r >= i {
			j = 0
		}
		arow := a[r*k : (r+1)*k]
		crow := dst[r*n : (r+1)*n]
		for ; j+4 <= n; j += 4 {
			c := crow[j : j+4]
			c[0], c[1], c[2], c[3] = dot4(arow,
				b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k], b[(j+2)*k:(j+3)*k], b[(j+3)*k:(j+4)*k], c[0], c[1], c[2], c[3])
		}
		for ; j < n; j++ {
			crow[j] = dot(arow, b[j*k:(j+1)*k], crow[j])
		}
	}
}

// dot4 continues the sums s0..s3 with a·b0, a·b1, a·b2 and a·b3. The slices
// must have a's length.
func dot4(a, b0, b1, b2, b3 []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	for p, v := range a {
		s0 += v * b0[p]
		s1 += v * b1[p]
		s2 += v * b2[p]
		s3 += v * b3[p]
	}
	return s0, s1, s2, s3
}

// dot continues the sum s with a·b.
func dot(a, b []float64, s float64) float64 {
	b = b[:len(a)]
	for p, v := range a {
		s += v * b[p]
	}
	return s
}

// RepeatRowsInto tiles src's rows cyclically into dst along axis 0. Both
// tensors must have the same per-row element count (product of the trailing
// dims), and dst's leading dim must be a multiple of src's. This is the
// broadcast kernel of the shared-history predict path: the batch-1 trunk
// activation is repeated across every candidate row without re-encoding.
func RepeatRowsInto(dst, src *Dense) {
	sb, db := src.Shape[0], dst.Shape[0]
	row := src.Size() / sb
	if dst.Size()/db != row || db%sb != 0 {
		panic(fmt.Sprintf("tensor: repeat rows %v into %v", src.Shape, dst.Shape))
	}
	for i := 0; i < db; i++ {
		copy(dst.Data[i*row:(i+1)*row], src.Data[(i%sb)*row:(i%sb+1)*row])
	}
}

// View points t (allocating a header when nil) at data with the given
// shape, without copying — the reusable-header counterpart of FromSlice for
// callers wrapping the same backing slice every decision interval.
func View(t *Dense, data []float64, shape ...int) *Dense {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: view shape of %d elements incompatible with %d-element data", n, len(data)))
	}
	if t == nil {
		t = &Dense{}
	}
	t.Data = data
	if cap(t.Shape) < len(shape) {
		t.Shape = make([]int, len(shape))
	}
	t.Shape = t.Shape[:len(shape)]
	copy(t.Shape, shape)
	return t
}

// AddInPlace adds b into a elementwise.
func AddInPlace(a, b *Dense) {
	if a.Size() != b.Size() {
		panic("tensor: add size mismatch")
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// ScaleInPlace multiplies every element by s.
func ScaleInPlace(a *Dense, s float64) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// ConcatInto concatenates 2-D tensors [B, d_i] along axis 1 into dst, which
// must be [B, Σd_i].
func ConcatInto(dst *Dense, ts ...*Dense) {
	if len(ts) == 0 {
		panic("tensor: concat of nothing")
	}
	b := ts[0].Shape[0]
	total := 0
	for _, t := range ts {
		if len(t.Shape) != 2 || t.Shape[0] != b {
			panic("tensor: concat requires 2-D tensors with equal batch")
		}
		total += t.Shape[1]
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != b || dst.Shape[1] != total {
		panic(fmt.Sprintf("tensor: concat dst %v, want [%d %d]", dst.Shape, b, total))
	}
	for i := 0; i < b; i++ {
		off := i * total
		for _, t := range ts {
			d := t.Shape[1]
			copy(dst.Data[off:off+d], t.Data[i*d:(i+1)*d])
			off += d
		}
	}
}

// SplitInto splits a concatenated gradient [B, Σd_i] into the pre-shaped
// 2-D tensors outs (widths taken from each out's shape), inverting
// ConcatInto without allocating.
func SplitInto(g *Dense, outs ...*Dense) {
	b := g.Shape[0]
	total := 0
	for _, o := range outs {
		if len(o.Shape) != 2 || o.Shape[0] != b {
			panic("tensor: split requires 2-D outputs with equal batch")
		}
		total += o.Shape[1]
	}
	if len(g.Shape) != 2 || g.Shape[1] != total {
		panic("tensor: split width mismatch")
	}
	for i := 0; i < b; i++ {
		off := i * total
		for _, o := range outs {
			d := o.Shape[1]
			copy(o.Data[i*d:(i+1)*d], g.Data[off:off+d])
			off += d
		}
	}
}
