package dense

// Complex kernels over the interleaved packed storage. The scalar factors
// stay real (float64): every call site in the factorization and the
// selected-inversion passes uses ±1/0 coefficients, and a real coefficient
// acts componentwise on the interleaved (re, im) words — exactly like
// Scale/AddScaled — so the engine's reduction arithmetic is element-type
// blind.

// zGemm4MThreshold is the m·n·k volume at or above which Gemm routes a
// complex product through the blocked real kernels via the 4M split; below
// it the direct interleaved loop wins.
const zGemm4MThreshold = 32 * 32 * 32

// zGemmNaive accumulates c += alpha*op(a)*op(b) with the direct interleaved
// complex triple loop. op(b) is read through a pair of strides; op(a) picks
// the loop nest that walks a's columns contiguously: axpy updates of c's
// column for a as stored, dot products with op(b)'s for a transposed.
func zGemmNaive(ta, tb Trans, alpha float64, a, b, c *Matrix) {
	m, n := c.Rows, c.Cols
	// op(b)(p, j) is the complex element at b.Data[2*(p*bp+j*bj)].
	bp, bj := 1, b.Rows
	if tb == DoTrans {
		bp, bj = b.Rows, 1
	}
	if ta == DoTrans {
		k := a.Rows
		for j := 0; j < n; j++ {
			cj := c.Data[2*j*m : 2*(j+1)*m]
			for i := 0; i < m; i++ {
				ai := a.Data[2*i*k : 2*(i+1)*k]
				var sr, si float64
				for p, bx := 0, 2*j*bj; p < k; p, bx = p+1, bx+2*bp {
					ar, aim := ai[2*p], ai[2*p+1]
					br, bi := b.Data[bx], b.Data[bx+1]
					sr += ar*br - aim*bi
					si += ar*bi + aim*br
				}
				cj[2*i] += alpha * sr
				cj[2*i+1] += alpha * si
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		cj := c.Data[2*j*m : 2*(j+1)*m]
		for p := 0; p < a.Cols; p++ {
			br := alpha * b.Data[2*(p*bp+j*bj)]
			bi := alpha * b.Data[2*(p*bp+j*bj)+1]
			if br == 0 && bi == 0 {
				continue
			}
			ap := a.Data[2*p*m : 2*(p+1)*m]
			for i := 0; i < m; i++ {
				ar, ai := ap[2*i], ap[2*i+1]
				cj[2*i] += ar*br - ai*bi
				cj[2*i+1] += ar*bi + ai*br
			}
		}
	}
}

// zSplit unpacks the interleaved matrix into arena-backed real and
// imaginary parts.
func zSplit(a *Matrix) (re, im *Matrix) {
	re = GetMatrixUninitElem(a.Rows, a.Cols, Real)
	im = GetMatrixUninitElem(a.Rows, a.Cols, Real)
	for e := 0; e < a.Rows*a.Cols; e++ {
		re.Data[e] = a.Data[2*e]
		im.Data[e] = a.Data[2*e+1]
	}
	return re, im
}

// zGemm4M accumulates c += alpha*op(a)*op(b) through the blocked real
// kernels via the 4M split: Re(AB) = ArBr − AiBi, Im(AB) = ArBi + AiBr. The
// parts are split as stored (the transposes ride on the real kernel's own)
// and, like the two accumulators, arena-backed; the accumulators are zeroed
// before the beta=1 real GEMMs so uninitialized arena words never mix in.
func zGemm4M(ta, tb Trans, alpha float64, a, b, c *Matrix) {
	ar, ai := zSplit(a)
	br, bi := zSplit(b)
	m, n := c.Rows, c.Cols
	tr := GetMatrixElem(m, n, Real)
	ti := GetMatrixElem(m, n, Real)
	Gemm(ta, tb, 1, ar, br, 1, tr)
	Gemm(ta, tb, -1, ai, bi, 1, tr)
	Gemm(ta, tb, 1, ar, bi, 1, ti)
	Gemm(ta, tb, 1, ai, br, 1, ti)
	for e := 0; e < m*n; e++ {
		c.Data[2*e] += alpha * tr.Data[e]
		c.Data[2*e+1] += alpha * ti.Data[e]
	}
	PutMatrix(ti)
	PutMatrix(tr)
	PutMatrix(bi)
	PutMatrix(br)
	PutMatrix(ai)
	PutMatrix(ar)
}
