package tensor

// The leaf routines under the GEMM kernels, in plain Go: the only leaves off
// amd64 (kernels_generic.go), the fallback on an amd64 without AVX and the
// operation sequences the assembly must reproduce (kernels_amd64.go).

// axpy4Go adds a[0]·b0 + a[1]·b1 + a[2]·b2 + a[3]·b3 into c, one product at
// a time in that order. The slices must have c's length.
func axpy4Go(c []float64, a *[4]float64, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	for j := range c {
		s := c[j]
		s += a0 * b0[j]
		s += a1 * b1[j]
		s += a2 * b2[j]
		s += a3 * b3[j]
		c[j] = s
	}
}

// axpyGo adds a·b into c.
func axpyGo(c []float64, a float64, b []float64) {
	b = b[:len(c)]
	for j := range c {
		c[j] += a * b[j]
	}
}

// dotTileGo adds to t[4i+j] the dot product of row i of a and row j of b, both
// four rows of length k: sixteen chains, each continued from the value t
// holds in ascending p.
func dotTileGo(t *[16]float64, a, b []float64, k int) {
	for i := 0; i < 4; i++ {
		c := t[4*i : 4*i+4]
		c[0], c[1], c[2], c[3] = dot4(a[i*k:(i+1)*k], b[:k], b[k:2*k], b[2*k:3*k], b[3*k:4*k], c[0], c[1], c[2], c[3])
	}
}
