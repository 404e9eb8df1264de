package tensor

import "fmt"

// Im2Col unfolds x [B, C, H, W] into dst [C*K*K, B*OH*OW] for a stride-1
// convolution with symmetric zero padding pad, where OH = H+2*pad-K+1 and
// OW likewise. Row r = (c*K+ki)*K+kj of dst holds, for every output
// position (n, i, j) at column (n*OH+i)*OW+j, the input value
// x[n, c, i+ki-pad, j+kj-pad] (zero outside the image). With this layout a
// convolution with weights reshaped to [Cout, C*K*K] is a single matmul.
// Every entry of dst is written, including the padding zeros, so dst can be
// a reused workspace buffer. nn.Conv2D unfolds one sample at a time (B = 1),
// which is far too little work to share out, so the loop is serial.
//
// Row r = (c, ki, kj) is the image shifted by (ki-pad, kj-pad): output rows
// [ilo, ihi) and columns [jlo, jhi) read inside the image, the rest is
// padding. When the output is as wide as the image (same padding) the shifted
// rows are contiguous in both, so a whole image plane is one copy; otherwise
// each output row's interior is one copy. The padding columns — which the
// plane copy ran through — are then zeroed a column at a time down the rows:
// the images here are tall and narrow (tiers × timesteps), so that is one or
// two strided passes where a pass per output row was twenty-eight short ones.
// The per-element loop this replaced is the reference in tensor_test.go.
func Im2Col(dst, x *Dense, k, pad int) {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("tensor: im2col input shape %v", x.Shape))
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h+2*pad-k+1, w+2*pad-k+1
	ckk, cols := c*k*k, b*oh*ow
	if len(dst.Shape) != 2 || dst.Shape[0] != ckk || dst.Shape[1] != cols {
		panic(fmt.Sprintf("tensor: im2col dst %v, want [%d %d]", dst.Shape, ckk, cols))
	}
	for r := 0; r < ckk; r++ {
		ci, ki, kj := r/(k*k), (r/k)%k, r%k
		row := dst.Data[r*cols : (r+1)*cols]
		ilo, ihi := max(0, pad-ki), min(oh, h+pad-ki)
		jlo, jhi := max(0, pad-kj), min(ow, w+pad-kj)
		if ihi <= ilo || jhi <= jlo {
			clear(row) // the kernel offset lies wholly in the padding
			continue
		}
		off := (ki-pad)*w + kj - pad // out[i][j] = plane[i*w+j+off]
		for n := 0; n < b; n++ {
			out := row[n*oh*ow : (n+1)*oh*ow]
			plane := x.Data[(n*c+ci)*h*w : (n*c+ci+1)*h*w]
			clear(out[:ilo*ow])
			clear(out[ihi*ow:])
			if ow == w {
				q0, q1 := ilo*ow+jlo, (ihi-1)*ow+jhi
				copy(out[q0:q1], plane[q0+off:q1+off])
			} else {
				for i := ilo; i < ihi; i++ {
					copy(out[i*ow+jlo:i*ow+jhi], plane[i*w+jlo+off:i*w+jhi+off])
				}
			}
			body := out[ilo*ow : ihi*ow]
			for j := 0; j < ow; j++ {
				if j >= jlo && j < jhi {
					continue
				}
				for q := j; q < len(body); q += ow {
					body[q] = 0
				}
			}
		}
	}
}

// Col2Im folds cols [C*K*K, B*OH*OW] back into dx [B, C, H, W], summing the
// contributions of overlapping patches — the exact adjoint of Im2Col, used
// for the convolution input gradient. dx is zeroed first.
//
// Kernel offsets are visited in (ki, kj) order, as in the per-element loop
// this replaced (the reference in tensor_test.go), and nothing else orders a
// dx element's contributions — so folding a batch sample by sample leaves the
// bits of folding it whole. Within one offset, when the output is as wide as
// the image, the whole plane is one slice add if no column is padding and
// otherwise each interior column is one strided add down the rows (a dx
// element receives one contribution per offset, so the order inside an offset
// is free); when it is not, the interior [jlo, jhi) of each output row is one
// slice add.
func Col2Im(dx, cols *Dense, k, pad int) {
	if len(dx.Shape) != 4 {
		panic(fmt.Sprintf("tensor: col2im output shape %v", dx.Shape))
	}
	b, c, h, w := dx.Shape[0], dx.Shape[1], dx.Shape[2], dx.Shape[3]
	oh, ow := h+2*pad-k+1, w+2*pad-k+1
	ckk, ncols := c*k*k, b*oh*ow
	if len(cols.Shape) != 2 || cols.Shape[0] != ckk || cols.Shape[1] != ncols {
		panic(fmt.Sprintf("tensor: col2im cols %v, want [%d %d]", cols.Shape, ckk, ncols))
	}
	for ci := 0; ci < c; ci++ {
		for n := 0; n < b; n++ {
			clear(dx.Data[(n*c+ci)*h*w : (n*c+ci+1)*h*w])
		}
		for ki := 0; ki < k; ki++ {
			ilo, ihi := max(0, pad-ki), min(oh, h+pad-ki)
			for kj := 0; kj < k; kj++ {
				jlo, jhi := max(0, pad-kj), min(ow, w+pad-kj)
				if ihi <= ilo || jhi <= jlo {
					continue
				}
				off := (ki-pad)*w + kj - pad // src[i][j] adds into plane[i*w+j+off]
				r := (ci*k+ki)*k + kj
				row := cols.Data[r*ncols : (r+1)*ncols]
				for n := 0; n < b; n++ {
					src := row[n*oh*ow : (n+1)*oh*ow]
					plane := dx.Data[(n*c+ci)*h*w : (n*c+ci+1)*h*w]
					switch {
					case ow != w:
						for i := ilo; i < ihi; i++ {
							addInto(plane[i*w+jlo+off:], src[i*ow+jlo:i*ow+jhi])
						}
					case jlo == 0 && jhi == ow:
						addInto(plane[ilo*w+off:], src[ilo*ow:ihi*ow])
					default: // the same index q runs down a column of both
						for j := jlo; j < jhi; j++ {
							s := src[ilo*ow+j : (ihi-1)*ow+j+1]
							d := plane[ilo*ow+j+off:][:len(s)]
							for q := 0; q < len(s); q += ow {
								d[q] += s[q]
							}
						}
					}
				}
			}
		}
	}
}

// addInto adds src into the front of dst.
func addInto(dst, src []float64) {
	dst = dst[:len(src)]
	for j, v := range src {
		dst[j] += v
	}
}
