package dense

import "fmt"

// Cache-blocking parameters (in float64 elements): an mc×kc panel of packed
// A sits in L2, and the kernel walks mr-row / nr-column strips that live in
// L1. DESIGN.md discusses the choices.
const (
	blockMC = 128
	blockKC = 256

	// smallGemmFlops: at or below this many real flops (2·m·n·k real, 8·m·n·k
	// complex) the blocked path's set-up costs more than its kernel saves and
	// the naive loops win; measured crossover on the reference machine is
	// near an 8×4×6 real (4×4×3 complex) product.
	smallGemmFlops = 384
)

// view is a window into a column-major operand: entry (i, j) of op(X) is
// entry i+j*ld of data when !t and j+i*ld when t, counting entries (pairs,
// for complex). In the blocked path a z view is a complex A read as its 1M
// image (see gemm): real units, ld still in entries, so even (i, j) address
// entry (i/2, j/2)'s pair alike.
type view struct {
	data []float64
	ld   int
	t    bool
	z    bool
}

// at returns the window of v whose op(X)(0, 0) is op(X)(i, j), for w words
// per entry.
func (v view) at(i, j, w int) view {
	if v.t {
		i, j = j, i
	}
	v.data = v.data[(i+j*v.ld)*w:]
	return v
}

// Gemm computes c = alpha*op(a)*op(b) + beta*c where op is identity or
// transpose per ta, tb. Shapes must conform; c must be preallocated.
//
// Complex operands (all three) take the same conventions with a plain,
// never conjugating transpose — the one under which A − zI is symmetric.
func Gemm(ta, tb Trans, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	w := checkElem("Gemm", a, b, c).Width()
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
	if alpha == 0 {
		return
	}
	gemm(w, alpha, view{data: a.Data, ld: a.Rows, t: ta == DoTrans},
		view{data: b.Data, ld: b.Rows, t: tb == DoTrans}, view{data: c.Data, ld: c.Rows}, am, bn, ak)
}

// gemm accumulates c += alpha·op(a)·op(b) for an m×k op(a), k×n op(b) and
// m×n c of w words per entry, on the caller's goroutine. The naive loops
// take products of at most smallGemmFlops, complex transposed B, and a B of
// fewer than nr columns when A would be packed (transposed, complex or
// m < mr): a pack then serves less than one strip. The rest run the
// blocked kernel, complex ones as real products over the 1M expansion (Van
// Zee & Smith 2020; DESIGN.md §5m): the interleaved C is a real 2m×n matrix,
// op(A) packs as 2×2 real blocks [re −im; im re] and B's own storage is a
// real 2k×n operand, each with ld 2·ld.
func gemm(w int, alpha float64, a, b, c view, m, n, k int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	z := w == 2
	if 2*int64(w*w*m)*int64(n)*int64(k) <= smallGemmFlops || n < nr && (a.t || z || m < mr) || z && b.t {
		_, bp, bj := b.strip(0, 0)
		if z {
			naiveLoops(complex(alpha, 0), complexView(a.data), a.ld, a.t, complexView(b.data), bp, bj,
				complexView(c.data), c.ld, m, n, k)
		} else {
			naiveLoops(alpha, a.data, a.ld, a.t, b.data, bp, bj, c.data, c.ld, m, n, k)
		}
		return
	}
	a.z, b.ld, c.ld = z, w*b.ld, w*c.ld
	gemmBlocked(alpha, a, b, c, w*m, n, w*k)
}

// gemmBlocked runs the blocked loop nest cv += alpha*av*bv over real units.
// An untransposed real A with m ≥ mr and a B with n ≥ nr are read in place
// through the kernel's strides, the rest packed into arena buffers. An edge
// tile computes a whole tile into scratch — from a zero-padded packed strip
// or an in-place one moved back to end at the edge — and adds what is in range.
func gemmBlocked(alpha float64, av, bv, cv view, m, n, k int) {
	inA, inB := !av.t && !av.z && m >= mr, n >= nr
	na, nb := 0, 0
	if !inA {
		na = min(blockMC, (m+mr-1)/mr*mr) * min(blockKC, k)
	}
	if !inB {
		nb = nr * min(blockKC, k)
	}
	var buf []float64
	if na+nb > 0 {
		buf = GetBuf(na + nb)
		defer PutBuf(buf)
	}
	apack, bpack := buf[:na], buf[na:na+nb]
	for pc := 0; pc < k; pc += blockKC {
		kc := min(blockKC, k-pc)
		if !inB {
			packB(bv, pc, kc, n, bpack)
		}
		for ic := 0; ic < m; ic += blockMC {
			mc := min(blockMC, m-ic)
			if !inA {
				packA(av, ic, mc, pc, kc, apack)
			}
			for jr := 0; jr < n; jr += nr {
				nrr := min(nr, n-jr)
				bs, bk, bj, dj := bpack, nr, 1, 0
				if inB {
					dj = nr - nrr
					bs, bk, bj = bv.strip(pc, jr-dj)
				}
				for ir := 0; ir < mc; ir += mr {
					mrr := min(mr, mc-ir)
					as, ak, di := apack, mr, 0
					if inA {
						di = mr - mrr
						as, ak = av.data[ic+ir-di+pc*av.ld:], av.ld
					} else {
						as = apack[(ir/mr)*kc*mr:]
					}
					if mrr == mr && nrr == nr {
						microKernel(kc, alpha, as, ak, bs, bk, bj, cv.data[ic+ir+jr*cv.ld:], cv.ld)
						continue
					}
					var tmp [mr * nr]float64
					microKernel(kc, alpha, as, ak, bs, bk, bj, tmp[:], mr)
					for j := 0; j < nrr; j++ {
						cj := cv.data[ic+ir+(jr+j)*cv.ld:][:mrr]
						for i := range cj {
							cj[i] += tmp[(j+dj)*mr+di+i]
						}
					}
				}
			}
		}
	}
}

// strip returns where op(X)'s entry (p0, j0) lies, with the steps from one
// entry to the next down a column and along a row of op(X): for B, the
// kernel's steps per k and per column.
func (v view) strip(p0, j0 int) (b []float64, bk, bj int) {
	if v.t {
		return v.data[j0+p0*v.ld:], v.ld, 1
	}
	return v.data[p0+j0*v.ld:], 1, v.ld
}

// zero2 stands in for a packed strip's rows past the panel: read with step 0.
var zero2 [2]float64

// packA copies the mc×kc panel of op(A) starting at (i0, p0) into mr-row
// strips: strip s holds rows [s*mr, s*mr+mr) k-major, dst[s*mr*kc + p*mr + r],
// zero-padded past mc.
func packA(v view, i0, mc, p0, kc int, dst []float64) {
	_, ri, rp := v.strip(0, 0) // op(A)(i, p) is entry i*ri+p*rp
	if v.z {
		packAZ(v, i0, mc, p0, kc, ri, rp, dst)
		return
	}
	for s := 0; s*mr < mc; s++ {
		d := dst[s*mr*kc:]
		for r := 0; r < mr; r++ {
			src, step := zero2[:], 0
			if r < mc-s*mr {
				src, step = v.data[(i0+s*mr+r)*ri+p0*rp:], rp
			}
			for p := 0; p < kc; p++ {
				d[p*mr+r] = src[p*step]
			}
		}
	}
}

// packAZ is packA for the 1M image of a complex op(A): entry (I, P) becomes
// the real block [re −im; im re] at rows 2I, 2I+1, columns 2P, 2P+1 (all
// block offsets are even, so none is split). pack1M packs a full strip of a
// stored A, whose column P holds the strip's rows as interleaved pairs.
func packAZ(v view, i0, mc, p0, kc, ri, rp int, dst []float64) {
	for s := 0; s*mr < mc; s++ {
		d := dst[s*mr*kc : (s+1)*mr*kc]
		if !v.t && mc-s*mr >= mr {
			pack1M(kc/2, v.data[i0+s*mr+p0*v.ld:], 2*v.ld, d)
			continue
		}
		for r := 0; r < mr; r += 2 {
			src, step := zero2[:], 0
			if r < mc-s*mr {
				src, step = v.data[2*((i0+s*mr+r)/2*ri+p0/2*rp):], rp
			}
			for p := 0; p < kc; p += 2 {
				re, im := src[p*step], src[p*step+1]
				q := p*mr + r
				d[q], d[q+1], d[q+mr], d[q+mr+1] = re, im, -im, re
			}
		}
	}
}

// packB copies op(B)'s kc×n panel from row p0, n < nr, into one nr-column
// strip, k-major and zero-padded.
func packB(v view, p0, kc, n int, dst []float64) {
	src, bk, bj := v.strip(p0, 0)
	for p := 0; p < kc; p++ {
		d := dst[p*nr : p*nr+nr]
		for c := range d {
			d[c] = 0
			if c < n {
				d[c] = src[p*bk+c*bj]
			}
		}
	}
}
