package dense

import (
	"fmt"
	"math/cmplx"
)

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
	re = GetMatrixUninit(a.Rows, a.Cols)
	im = GetMatrixUninit(a.Rows, a.Cols)
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
	tr := GetMatrix(m, n)
	ti := GetMatrix(m, n)
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

// zTrsm solves complex triangular systems in place, mirroring the real Trsm
// conventions (Left: TX = B, Right: XT = B), against the factor as stored:
// no engine program solves against a transposed one.
func zTrsm(side Side, uplo UpLo, tt Trans, diag Diag, t, b *Matrix) {
	if tt == DoTrans {
		panic("dense: complex Trsm does not support transposed operands")
	}
	checkElem("Trsm", t, b)
	n := t.Rows
	if t.Cols != n {
		panic("dense: Trsm triangular operand not square")
	}
	if side == Left && b.Rows != n || side == Right && b.Cols != n {
		panic("dense: Trsm shape mismatch")
	}
	// Both sides walk the unknowns in dependency order: position x is index
	// x, depending on [0, x), for a forward sweep (Left/Lower, Right/Upper)
	// and index n-1-x, depending on [n-x, n), for a backward one.
	if side == Left {
		for j := 0; j < b.Cols; j++ {
			for x := 0; x < n; x++ {
				i, k0, k1 := x, 0, x
				if uplo == Upper {
					i, k0, k1 = n-1-x, n-x, n
				}
				s := b.ZAt(i, j)
				for k := k0; k < k1; k++ {
					s -= t.ZAt(i, k) * b.ZAt(k, j)
				}
				if diag == NonUnit {
					s /= t.ZAt(i, i)
				}
				b.ZSet(i, j, s)
			}
		}
		return
	}
	m := b.Rows
	for x := 0; x < n; x++ {
		j, k0, k1 := x, 0, x
		if uplo == Lower {
			j, k0, k1 = n-1-x, n-x, n
		}
		xj := b.Data[2*j*m : 2*(j+1)*m]
		for k := k0; k < k1; k++ {
			tr, ti := real(t.ZAt(k, j)), imag(t.ZAt(k, j))
			if tr == 0 && ti == 0 {
				continue
			}
			xk := b.Data[2*k*m : 2*(k+1)*m]
			for i := 0; i < m; i++ {
				vr, vi := xk[2*i], xk[2*i+1]
				xj[2*i] -= tr*vr - ti*vi
				xj[2*i+1] -= tr*vi + ti*vr
			}
		}
		if diag == NonUnit {
			d := t.ZAt(j, j)
			for i := 0; i < m; i++ {
				v := complex(xj[2*i], xj[2*i+1]) / d
				xj[2*i], xj[2*i+1] = real(v), imag(v)
			}
		}
	}
}

// zLU factors the complex matrix in place without pivoting (unit-lower L,
// upper U packed). The complex-shifted matrices of pole expansion, A − zI
// with Im(z) ≠ 0 and A real diagonally dominant, are safely nonsingular.
func zLU(a *Matrix) error {
	n := a.Rows
	for k := 0; k < n; k++ {
		p := a.ZAt(k, k)
		if badPivot(cmplx.Abs(p)) {
			return fmt.Errorf("dense: zero or non-finite pivot %v at %d", p, k)
		}
		for i := k + 1; i < n; i++ {
			a.ZSet(i, k, a.ZAt(i, k)/p)
		}
		for j := k + 1; j < n; j++ {
			ar, ai := real(a.ZAt(k, j)), imag(a.ZAt(k, j))
			if ar == 0 && ai == 0 {
				continue
			}
			col := a.Data[2*j*n : 2*(j+1)*n]
			lcol := a.Data[2*k*n : 2*(k+1)*n]
			for i := k + 1; i < n; i++ {
				lr, li := lcol[2*i], lcol[2*i+1]
				col[2*i] -= lr*ar - li*ai
				col[2*i+1] -= lr*ai + li*ar
			}
		}
	}
	return nil
}
