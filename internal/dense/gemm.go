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

	// smallGemmFlops: at or below this many real flops (2·m·n·k real, 8·m·n·k
	// complex) packing costs more than it saves and the naive loops win;
	// measured crossover on the reference machine is near an 8–10 wide product.
	smallGemmFlops = 1 << 11
)

// view is a window into a column-major operand with an explicit leading
// dimension and an optional transposition: element (i, j) of op(X) is
// data[i+j*ld] when !t and data[j+i*ld] when t. A z view is a complex
// operand read as its real 1M image (see Gemm): r and c count real units and
// ld complex entries, so even (i, j) address entry (i/2, j/2)'s pair alike.
type view struct {
	data []float64
	ld   int
	r, c int // dims of op(X)
	t    bool
	z    bool
}

// Gemm computes c = alpha*op(a)*op(b) + beta*c where op is identity or
// transpose per ta, tb. Shapes must conform; c must be preallocated.
//
// Products above smallGemmFlops run through the cache-blocked
// register-tiled kernel, smaller ones — and complex ones whose 1M image fills
// no whole micro-tile (n < nr or 2m < mr: all edge tiles, mostly padding) —
// through the naive loops; either way on the caller's goroutine.
//
// Complex operands (all three) take the same conventions with a plain,
// never conjugating transpose — the one under which A − zI is symmetric.
// The blocked kernel runs them as real products over the 1M expansion (Van
// Zee & Smith 2020; DESIGN.md §5m): the interleaved m×n C is a real 2m×n
// matrix with ld 2m, op(A) packs as 2×2 real blocks [re −im; im re]
// (2m×2k) and op(B) is a real 2k×n operand, B's own storage with ld 2·rows
// untransposed.
func Gemm(ta, tb Trans, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	isComplex := checkElem("Gemm", a, b, c) == Complex
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
	if w := int64(c.Width()); 2*w*w*int64(am)*int64(bn)*int64(ak) <= smallGemmFlops ||
		isComplex && (bn < nr || 2*am < mr) {
		gemmNaive(ta, tb, alpha, a, b, c)
		return
	}
	av := view{data: a.Data, ld: a.Rows, r: am, c: ak, t: ta == DoTrans}
	bv := view{data: b.Data, ld: b.Rows, r: bk, c: bn, t: tb == DoTrans}
	cv := view{data: c.Data, ld: c.Rows, r: am, c: bn}
	if isComplex {
		av.r, av.c, av.z = 2*am, 2*ak, true
		bv.r, bv.z = 2*bk, bv.t
		if !bv.t {
			bv.ld *= 2
		}
		cv.r, cv.ld = 2*am, 2*am
	}
	gemmBlocked(alpha, av, bv, cv)
}

// gemmBlocked runs the three-level blocked loop nest: cv += alpha*av*bv.
// Pack buffers come from the package arena, so the steady state allocates
// nothing.
func gemmBlocked(alpha float64, av, bv, cv view) {
	m, n, k := av.r, bv.c, av.c
	mcMax := min(blockMC, (m+mr-1)/mr*mr)
	ncMax := min(blockNC, (n+nr-1)/nr*nr)
	kcMax := min(blockKC, k)
	buf := GetBuf((mcMax + ncMax) * kcMax)
	apack, bpack := buf[:mcMax*kcMax], buf[mcMax*kcMax:]
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
	PutBuf(buf)
}

// packA copies the mc×kc panel of op(A) starting at (i0, p0) into mr-row
// strips: strip s holds rows [s*mr, s*mr+mr) k-major, dst[s*mr*kc + p*mr + r],
// zero-padded past mc.
func packA(v view, i0, mc, p0, kc int, dst []float64) {
	if v.z {
		packAZ(v, i0, mc, p0, kc, dst)
		return
	}
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

// packAZ is packA for the 1M image of a complex op(A): complex entry (I, P)
// becomes the real 2×2 block [re −im; im re] at rows 2I, 2I+1 and columns
// 2P, 2P+1. blockMC, blockKC and mr are even, so i0, mc, p0, kc and every
// strip start are even and no block is ever split.
func packAZ(v view, i0, mc, p0, kc int, dst []float64) {
	if !v.t {
		// Stored column P holds a strip's rows as interleaved pairs: real
		// column 2P copies them, 2P+1 swaps each and negates its new first.
		for s := 0; s*mr < mc; s++ {
			src, d := v.data[i0+s*mr+p0*v.ld:], dst[s*mr*kc:(s+1)*mr*kc]
			rows := mc - s*mr
			if rows >= mr {
				pack1M(kc/2, src, 2*v.ld, d)
				continue
			}
			for p := 0; p < kc; p += 2 {
				dp := (*[2 * mr]float64)(d[p*mr:])
				for r := 0; r < mr; r += 2 {
					var re, im float64
					if r < rows {
						re, im = src[p*v.ld+r], src[p*v.ld+r+1]
					}
					dp[r], dp[r+1], dp[mr+r], dp[mr+r+1] = re, im, -im, re
				}
			}
		}
		return
	}
	// op(A)(I, P) = stored (P, I): stored column I is contiguous in P.
	for s := 0; s*mr < mc; s++ {
		base := s * mr * kc
		rows := min(mr, mc-s*mr)
		for r := 0; r < rows; r += 2 {
			src := v.data[p0+(i0+s*mr+r)*v.ld:][:kc]
			for p := 0; p < kc; p += 2 {
				re, im := src[p], src[p+1]
				o := base + p*mr + r
				dst[o], dst[o+1] = re, im
				dst[o+mr], dst[o+mr+1] = -im, re
			}
		}
		for r := rows; r < mr; r++ {
			for p := 0; p < kc; p++ {
				dst[base+p*mr+r] = 0
			}
		}
	}
}

// zeroKC stands in for op(B)'s columns past nc in packB; never written.
var zeroKC [blockKC]float64

// packB copies the kc×nc panel of op(B) starting at (p0, j0) into nr-column
// strips: strip s holds columns [s*nr, s*nr+nr) k-major, dst[s*nr*kc + p*nr + c],
// zero-padded past nc.
func packB(v view, p0, kc, j0, nc int, dst []float64) {
	for s := 0; s*nr < nc; s++ {
		base := s * nr * kc
		cols := min(nr, nc-s*nr)
		if !v.t {
			// op(B)(p, j) = stored (p, j): interleave the strip's stored
			// columns, contiguous in p (zeros past nc), one k step at a time.
			b := [nr][]float64{zeroKC[:kc], zeroKC[:kc], zeroKC[:kc], zeroKC[:kc]}
			for c := range cols {
				b[c] = v.data[p0+(j0+s*nr+c)*v.ld:][:kc]
			}
			b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
			d := dst[base : base+nr*kc]
			for p := range b0 {
				q := (*[nr]float64)(d[p*nr:])
				q[0], q[1], q[2], q[3] = b0[p], b1[p], b2[p], b3[p]
			}
		} else if v.z {
			// op(B)(P, j) = stored (j, P), a pair: its re and im words go
			// to real rows 2P and 2P+1.
			for p := 0; p < kc; p += 2 {
				src := v.data[2*(j0+s*nr)+(p0+p)*v.ld:]
				d0 := dst[base+p*nr : base+p*nr+nr : base+p*nr+nr]
				d1 := dst[base+(p+1)*nr : base+(p+1)*nr+nr : base+(p+1)*nr+nr]
				for c := 0; c < cols; c++ {
					d0[c], d1[c] = src[2*c], src[2*c+1]
				}
				for c := cols; c < nr; c++ {
					d0[c], d1[c] = 0, 0
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
