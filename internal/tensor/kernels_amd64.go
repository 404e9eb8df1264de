//go:build amd64 && !purego

package tensor

// hasAVX reports whether the assembly leaves may run: the CPU has AVX and the
// OS saves the YMM state across context switches (CPUID.1:ECX bit 27, OSXSAVE,
// and bit 28, AVX; XCR0 bits 1 and 2).
var hasAVX = func() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	return cpuid1ecx()&(osxsave|avx) == osxsave|avx && xcr0()&6 == 6
}()

// Each leaf picks its body on hasAVX. A vector lane holds one output element
// and sees the Go twin's multiplies and adds, each correctly rounded, in the
// same order: the same bits (which NaN survives two NaNs aside). The
// re-slicing is the bounds check the assembly relies on.

func axpy4(c []float64, a *[4]float64, b0, b1, b2, b3 []float64) {
	if !hasAVX || len(c) == 0 {
		axpy4Go(c, a, b0, b1, b2, b3)
		return
	}
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	axpy4AVX(&c[0], len(c), a, &b0[0], &b1[0], &b2[0], &b3[0])
}

func axpy(c []float64, a float64, b []float64) {
	if !hasAVX || len(c) == 0 {
		axpyGo(c, a, b)
		return
	}
	b = b[:len(c)]
	axpyAVX(&c[0], len(c), a, &b[0])
}

// The assembly takes the first k − k mod 4 steps of the sixteen chains; a
// chain is sequential anyway, so finishing it here does not change its sum.
func dotTile(t *[16]float64, a, b []float64, k int) {
	if !hasAVX || k < 4 {
		dotTileGo(t, a, b, k)
		return
	}
	a, b = a[:4*k], b[:4*k]
	dotTileAVX(t, &a[0], &b[0], k&^3, k)
	for p := k &^ 3; p < k; p++ {
		for i := 0; i < 16; i++ {
			t[i] += a[i/4*k+p] * b[i%4*k+p]
		}
	}
}

// Bodies and contracts in kernels_amd64.s.

func cpuid1ecx() uint32
func xcr0() uint32

//go:noescape
func axpy4AVX(c *float64, n int, a *[4]float64, b0, b1, b2, b3 *float64)

//go:noescape
func axpyAVX(c *float64, n int, a float64, b *float64)

//go:noescape
func dotTileAVX(t *[16]float64, a, b *float64, n, ld int)
