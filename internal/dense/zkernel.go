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

// zGemm4MThreshold is the m·n·k volume at or above which a complex product
// is routed through the blocked real kernels via the 4M split; below it
// the direct interleaved loop wins.
const zGemm4MThreshold = 32 * 32 * 32

// zGemm computes c = alpha*a*b + beta*c on complex matrices. Transposed
// operands are not supported: the complex path always runs the general
// (asymmetric) engine program, whose products are all op-free.
func zGemm(ta, tb Trans, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if ta == DoTrans || tb == DoTrans {
		panic("dense: complex Gemm does not support transposed operands")
	}
	checkElem("Gemm", a, b, c)
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("dense: Gemm shape mismatch a=%dx%d b=%dx%d c=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if beta != 1 {
		if beta == 0 {
			c.Zero()
		} else {
			c.Scale(beta)
		}
	}
	if alpha == 0 || a.Rows == 0 || b.Cols == 0 || a.Cols == 0 {
		return
	}
	if int64(a.Rows)*int64(a.Cols)*int64(b.Cols) >= zGemm4MThreshold {
		zGemm4M(alpha, a, b, c)
		return
	}
	zGemmNaive(alpha, a, b, c)
}

// zGemmNaive accumulates c += alpha*a*b with the direct interleaved
// complex triple loop (beta already applied by zGemm).
func zGemmNaive(alpha float64, a, b, c *Matrix) {
	m := a.Rows
	for j := 0; j < b.Cols; j++ {
		cj := c.Data[2*j*m : 2*(j+1)*m]
		for p := 0; p < a.Cols; p++ {
			br := alpha * b.Data[2*(p+j*b.Rows)]
			bi := alpha * b.Data[2*(p+j*b.Rows)+1]
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

// zGemm4M accumulates c += alpha*a*b through the blocked real kernels via
// the 4M split: Re(AB) = ArBr − AiBi, Im(AB) = ArBi + AiBr. The split
// parts and the two accumulators are arena-backed, and the accumulators
// are zeroed before the beta=1 real GEMMs so uninitialized arena words
// never mix in.
func zGemm4M(alpha float64, a, b, c *Matrix) {
	ar, ai := zSplit(a)
	br, bi := zSplit(b)
	m, n := c.Rows, c.Cols
	tr := GetMatrix(m, n)
	ti := GetMatrix(m, n)
	Gemm(NoTrans, NoTrans, 1, ar, br, 1, tr)
	Gemm(NoTrans, NoTrans, -1, ai, bi, 1, tr)
	Gemm(NoTrans, NoTrans, 1, ar, bi, 1, ti)
	Gemm(NoTrans, NoTrans, 1, ai, br, 1, ti)
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

// zTrsm solves op-free complex triangular systems in place, mirroring the
// real Trsm conventions (Left: op(T)X = B, Right: X·op(T) = B).
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
	if side == Left {
		for j := 0; j < b.Cols; j++ {
			if uplo == Lower {
				for i := 0; i < n; i++ {
					s := b.ZAt(i, j)
					for k := 0; k < i; k++ {
						s -= t.ZAt(i, k) * b.ZAt(k, j)
					}
					if diag == NonUnit {
						s /= t.ZAt(i, i)
					}
					b.ZSet(i, j, s)
				}
			} else {
				for i := n - 1; i >= 0; i-- {
					s := b.ZAt(i, j)
					for k := i + 1; k < n; k++ {
						s -= t.ZAt(i, k) * b.ZAt(k, j)
					}
					if diag == NonUnit {
						s /= t.ZAt(i, i)
					}
					b.ZSet(i, j, s)
				}
			}
		}
		return
	}
	m := b.Rows
	if uplo == Lower {
		for j := n - 1; j >= 0; j-- {
			xj := b.Data[2*j*m : 2*(j+1)*m]
			for k := j + 1; k < n; k++ {
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
	} else {
		for j := 0; j < n; j++ {
			xj := b.Data[2*j*m : 2*(j+1)*m]
			for k := 0; k < j; k++ {
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
}

// zLU factors the complex matrix in place without pivoting (unit-lower L,
// upper U packed). The complex-shifted matrices of pole expansion, A − zI
// with Im(z) ≠ 0 and A real diagonally dominant, are safely nonsingular.
func zLU(a *Matrix) error {
	n := a.Rows
	for k := 0; k < n; k++ {
		p := a.ZAt(k, k)
		if cmplx.Abs(p) < 1e-300 {
			return fmt.Errorf("dense: zero pivot at %d", k)
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
