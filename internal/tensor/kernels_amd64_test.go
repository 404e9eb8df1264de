//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func init() {
	if hasAVX {
		setPortable = func(on bool) { hasAVX = !on }
	}
}

// leafSpecials are the operands a lane-wise multiply or add could get wrong
// if the vector unit differed from the scalar one in any respect: signed
// zeros, infinities, NaN, the smallest and the largest subnormal (Go sets
// neither flush-to-zero nor denormals-are-zero) and values whose products
// and sums overflow to ±Inf mid-chain.
var leafSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.Float64frombits(1<<52 - 1),
	math.MaxFloat64, -math.MaxFloat64, 0.5 * math.MaxFloat64,
}

// leafOperand returns n elements starting off words into a fresh array, so
// the slice starts at every phase of a 32-byte vector as off runs over 0..3.
// Each element is a special with probability special, a normal sample
// otherwise.
func leafOperand(rng *rand.Rand, off, n int, special float64) []float64 {
	v := make([]float64, off+n)[off:]
	for i := range v {
		if v[i] = rng.NormFloat64(); rng.Float64() < special {
			v[i] = leafSpecials[rng.Intn(len(leafSpecials))]
		}
	}
	return v
}

// The assembly leaves agree with their Go twins in every bit (any NaN for
// any NaN) and write nothing outside c or t: for every length that splits
// differently into 8-wide, 4-wide and scalar passes, at every alignment, over
// finite operands and over a mix with the specials above.
func TestLeafKernelsMatchPortable(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX: the Go leaves are the only path")
	}
	rng := rand.New(rand.NewSource(11))
	for _, special := range []float64{0, 0.25} {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				what := fmt.Sprintf("n=%d off=%d special=%v", n, off, special)
				var a [4]float64
				copy(a[:], leafOperand(rng, 0, 4, special))
				var b [4][]float64
				for q := range b {
					b[q] = leafOperand(rng, (off+q)%4, n, special)
				}
				checkLeaf(t, "axpy4 "+what, off, leafOperand(rng, 0, n, special),
					func(c []float64) { axpy4(c, &a, b[0], b[1], b[2], b[3]) },
					func(c []float64) { axpy4Go(c, &a, b[0], b[1], b[2], b[3]) })
				checkLeaf(t, "axpy "+what, off, leafOperand(rng, 0, n, special),
					func(c []float64) { axpy(c, a[0], b[0]) },
					func(c []float64) { axpyGo(c, a[0], b[0]) })
			}
		}
		// dotTile through its wrapper (k mod 4 finished in Go, rows k apart
		// while the assembly runs k − k mod 4 steps), then the assembly alone
		// on rows further apart than it reads.
		for k := 0; k <= 19; k++ {
			for off := 0; off < 4; off++ {
				what := fmt.Sprintf("k=%d off=%d special=%v", k, off, special)
				a, b := leafOperand(rng, off, 4*k, special), leafOperand(rng, (off+1)%4, 4*k, special)
				checkLeaf(t, "dotTile "+what, off, leafOperand(rng, 0, 16, special),
					func(c []float64) { dotTile((*[16]float64)(c), a, b, k) },
					func(c []float64) { dotTileGo((*[16]float64)(c), a, b, k) })
				if k == 0 || k%4 != 0 {
					continue
				}
				for _, ld := range []int{k + 1, k + 6} {
					a, b := leafOperand(rng, off, 4*ld, special), leafOperand(rng, (off+2)%4, 4*ld, special)
					ac, bc := make([]float64, 0, 4*k), make([]float64, 0, 4*k)
					for r := 0; r < 4; r++ {
						ac, bc = append(ac, a[r*ld:r*ld+k]...), append(bc, b[r*ld:r*ld+k]...)
					}
					checkLeaf(t, fmt.Sprintf("dotTileAVX %s ld=%d", what, ld), off, leafOperand(rng, 0, 16, special),
						func(c []float64) { dotTileAVX((*[16]float64)(c), &a[0], &b[0], k, ld) },
						func(c []float64) { dotTileGo((*[16]float64)(c), ac, bc, k) })
				}
			}
		}
	}
}

// checkLeaf runs got and want on copies of c, each between two guard words
// and off+1 words into its array, and holds the results to each other bit for
// bit and the guards to their value.
func checkLeaf(t *testing.T, what string, off int, c []float64, got, want func(c []float64)) {
	t.Helper()
	const guard = 0x5ca1ab1e
	run := func(fn func(c []float64)) *Dense {
		v := make([]float64, off+len(c)+2)[off:]
		v[0], v[len(v)-1] = guard, guard
		copy(v[1:], c)
		fn(v[1 : len(v)-1 : len(v)-1])
		if v[0] != guard || v[len(v)-1] != guard {
			t.Fatalf("%s: wrote outside its output: guards %v, %v", what, v[0], v[len(v)-1])
		}
		return FromSlice(v[1:len(v)-1], len(c))
	}
	sameBits(t, what, run(got), run(want))
}
