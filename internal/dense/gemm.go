package dense

import "fmt"

// Cache-blocking parameters (in float64 elements). A kc×nc panel of packed
// B streams from L3, an mc×kc panel of packed A sits in L2, and the kernel
// walks mr-row / nr-column strips that live in L1. DESIGN.md discusses the
// choices.
const (
	blockMC = 128
	blockKC = 256
	blockNC = 1024

	// smallGemmFlops: below this (2·m·n·k) the packing overhead of the
	// blocked path exceeds its benefit and the naive loops win; measured
	// crossover on the reference machine is near an 8–10 wide product.
	smallGemmFlops = 1 << 11
)

// view is a window into a column-major operand with an explicit leading
// dimension and an optional transposition: element (i, j) of op(X) is
// data[i+j*ld] when !t and data[j+i*ld] when t.
type view struct {
	data []float64
	ld   int
	r, c int // dims of op(X)
	t    bool
}

func fullView(m *Matrix, tr Trans) view {
	r, c := m.Rows, m.Cols
	if tr == DoTrans {
		r, c = c, r
	}
	return view{data: m.Data, ld: m.Rows, r: r, c: c, t: tr == DoTrans}
}

// Gemm computes c = alpha*op(a)*op(b) + beta*c where op is identity or
// transpose per ta, tb. Shapes must conform; c must be preallocated.
//
// Products above smallGemmFlops run through the cache-blocked
// register-tiled kernel, smaller ones through the naive reference loops;
// either way on the caller's goroutine.
// Complex operands (all three) take the same conventions with a plain,
// never conjugating transpose — the one under which A − zI is symmetric.
func Gemm(ta, tb Trans, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	isComplex := c.Elem == Complex || a.Elem == Complex || b.Elem == Complex
	if isComplex {
		checkElem("Gemm", a, b, c)
	}
	am, ak := a.Rows, a.Cols
	if ta == DoTrans {
		am, ak = ak, am
	}
	bk, bn := b.Rows, b.Cols
	if tb == DoTrans {
		bk, bn = bn, bk
	}
	if ak != bk || c.Rows != am || c.Cols != bn {
		panic(fmt.Sprintf("dense: Gemm shape mismatch op(a)=%dx%d op(b)=%dx%d c=%dx%d",
			am, ak, bk, bn, c.Rows, c.Cols))
	}
	if beta != 1 {
		if beta == 0 {
			c.Zero()
		} else {
			c.Scale(beta)
		}
	}
	if alpha == 0 || am == 0 || bn == 0 || ak == 0 {
		return
	}
	if isComplex {
		if int64(am)*int64(bn)*int64(ak) >= zGemm4MThreshold {
			zGemm4M(ta, tb, alpha, a, b, c)
		} else {
			zGemmNaive(ta, tb, alpha, a, b, c)
		}
		return
	}
	flops := 2 * int64(am) * int64(bn) * int64(ak)
	if flops <= smallGemmFlops {
		gemmNaive(ta, tb, alpha, a, b, c)
		return
	}
	gemmBlocked(alpha, fullView(a, ta), fullView(b, tb), fullView(c, NoTrans))
}

// gemmBlocked runs the three-level blocked loop nest: cv += alpha*av*bv.
// Pack buffers come from the package arena, so the steady state allocates
// nothing.
func gemmBlocked(alpha float64, av, bv, cv view) {
	m, n, k := av.r, bv.c, av.c
	mcMax := min(blockMC, (m+mr-1)/mr*mr)
	ncMax := min(blockNC, (n+nr-1)/nr*nr)
	kcMax := min(blockKC, k)
	apack := GetBuf(mcMax * kcMax)
	bpack := GetBuf(ncMax * kcMax)
	for jc := 0; jc < n; jc += blockNC {
		nc := min(blockNC, n-jc)
		for pc := 0; pc < k; pc += blockKC {
			kc := min(blockKC, k-pc)
			packB(bv, pc, kc, jc, nc, bpack)
			for ic := 0; ic < m; ic += blockMC {
				mc := min(blockMC, m-ic)
				packA(av, ic, mc, pc, kc, apack)
				for jr := 0; jr < nc; jr += nr {
					nrr := min(nr, nc-jr)
					bstrip := bpack[(jr/nr)*kc*nr:]
					for ir := 0; ir < mc; ir += mr {
						mrr := min(mr, mc-ir)
						astrip := apack[(ir/mr)*kc*mr:]
						if mrr == mr && nrr == nr {
							microKernel(kc, alpha, astrip, bstrip,
								cv.data[(ic+ir)+(jc+jr)*cv.ld:], cv.ld)
							continue
						}
						// Edge tile: compute the full mr×nr tile into a
						// scratch block (packed panels are zero-padded),
						// then add only the in-range entries.
						var tmp [mr * nr]float64
						microKernel(kc, alpha, astrip, bstrip, tmp[:], mr)
						for j := 0; j < nrr; j++ {
							cj := cv.data[(ic+ir)+(jc+jr+j)*cv.ld:]
							for i := 0; i < mrr; i++ {
								cj[i] += tmp[j*mr+i]
							}
						}
					}
				}
			}
		}
	}
	PutBuf(bpack)
	PutBuf(apack)
}

// packA copies the mc×kc panel of op(A) starting at (i0, p0) into mr-row
// strips: strip s holds rows [s*mr, s*mr+mr) k-major, dst[s*mr*kc + p*mr + r],
// zero-padded past mc.
func packA(v view, i0, mc, p0, kc int, dst []float64) {
	for s := 0; s*mr < mc; s++ {
		base := s * mr * kc
		rows := min(mr, mc-s*mr)
		if !v.t {
			for p := 0; p < kc; p++ {
				src := v.data[(i0+s*mr)+(p0+p)*v.ld:]
				d := dst[base+p*mr : base+p*mr+mr : base+p*mr+mr]
				for r := 0; r < rows; r++ {
					d[r] = src[r]
				}
				for r := rows; r < mr; r++ {
					d[r] = 0
				}
			}
		} else {
			// op(A)(i, p) = stored (p, i): stored column i0+s*mr+r is
			// contiguous in p.
			for r := 0; r < rows; r++ {
				src := v.data[p0+(i0+s*mr+r)*v.ld:]
				for p := 0; p < kc; p++ {
					dst[base+p*mr+r] = src[p]
				}
			}
			for r := rows; r < mr; r++ {
				for p := 0; p < kc; p++ {
					dst[base+p*mr+r] = 0
				}
			}
		}
	}
}

// packB copies the kc×nc panel of op(B) starting at (p0, j0) into nr-column
// strips: strip s holds columns [s*nr, s*nr+nr) k-major, dst[s*nr*kc + p*nr + c],
// zero-padded past nc.
func packB(v view, p0, kc, j0, nc int, dst []float64) {
	for s := 0; s*nr < nc; s++ {
		base := s * nr * kc
		cols := min(nr, nc-s*nr)
		if !v.t {
			// op(B)(p, j) = stored (p, j): stored column j0+s*nr+c is
			// contiguous in p.
			for c := 0; c < cols; c++ {
				src := v.data[p0+(j0+s*nr+c)*v.ld:]
				for p := 0; p < kc; p++ {
					dst[base+p*nr+c] = src[p]
				}
			}
			for c := cols; c < nr; c++ {
				for p := 0; p < kc; p++ {
					dst[base+p*nr+c] = 0
				}
			}
		} else {
			// op(B)(p, j) = stored (j, p): row slice of stored column p0+p.
			for p := 0; p < kc; p++ {
				src := v.data[(j0+s*nr)+(p0+p)*v.ld:]
				d := dst[base+p*nr : base+p*nr+nr : base+p*nr+nr]
				for c := 0; c < cols; c++ {
					d[c] = src[c]
				}
				for c := cols; c < nr; c++ {
					d[c] = 0
				}
			}
		}
	}
}
