//go:build !amd64 || purego

package tensor

func axpy4(c []float64, a *[4]float64, b0, b1, b2, b3 []float64) { axpy4Go(c, a, b0, b1, b2, b3) }
func axpy(c []float64, a float64, b []float64)                   { axpyGo(c, a, b) }
func dotTile(t *[16]float64, a, b []float64, k int)              { dotTileGo(t, a, b, k) }
