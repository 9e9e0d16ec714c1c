package dense

// Naive kernels: the original unblocked triple-loop GEMM and the scalar
// TRSM. The GEMM remains the executable specification the blocked/tiled
// kernel is property-tested against and the fast path for tiny operands
// where packing overhead would dominate (the engine's many small supernode
// blocks); the TRSM is the one solve every caller runs.

// gemmNaive computes c += alpha*op(a)*op(b) with the four loop orders
// specialized for cache-friendly column-major access. Shapes are assumed
// validated by the caller; beta has already been applied to c.
func gemmNaive(ta, tb Trans, alpha float64, a, b, c *Matrix) {
	am, ak := a.Rows, a.Cols
	if ta == DoTrans {
		am, ak = ak, am
	}
	bn := b.Cols
	if tb == DoTrans {
		bn = b.Rows
	}
	switch {
	case ta == NoTrans && tb == NoTrans:
		for j := 0; j < bn; j++ {
			cj := c.Data[j*c.Rows : (j+1)*c.Rows]
			for p := 0; p < ak; p++ {
				bpj := alpha * b.Data[p+j*b.Rows]
				if bpj == 0 {
					continue
				}
				ap := a.Data[p*a.Rows : (p+1)*a.Rows]
				for i := 0; i < am; i++ {
					cj[i] += bpj * ap[i]
				}
			}
		}
	case ta == DoTrans && tb == NoTrans:
		for j := 0; j < bn; j++ {
			bj := b.Data[j*b.Rows : (j+1)*b.Rows]
			cj := c.Data[j*c.Rows : (j+1)*c.Rows]
			for i := 0; i < am; i++ {
				ai := a.Data[i*a.Rows : (i+1)*a.Rows] // column i of a == row i of aᵀ
				s := 0.0
				for p := 0; p < ak; p++ {
					s += ai[p] * bj[p]
				}
				cj[i] += alpha * s
			}
		}
	case ta == NoTrans && tb == DoTrans:
		for p := 0; p < ak; p++ {
			ap := a.Data[p*a.Rows : (p+1)*a.Rows]
			for j := 0; j < bn; j++ {
				bjp := alpha * b.Data[j+p*b.Rows]
				if bjp == 0 {
					continue
				}
				cj := c.Data[j*c.Rows : (j+1)*c.Rows]
				for i := 0; i < am; i++ {
					cj[i] += bjp * ap[i]
				}
			}
		}
	default: // DoTrans, DoTrans
		for j := 0; j < bn; j++ {
			cj := c.Data[j*c.Rows : (j+1)*c.Rows]
			for i := 0; i < am; i++ {
				ai := a.Data[i*a.Rows : (i+1)*a.Rows]
				s := 0.0
				for p := 0; p < ak; p++ {
					s += ai[p] * b.Data[j+p*b.Rows]
				}
				cj[i] += alpha * s
			}
		}
	}
}

// trsmNaive solves the triangular system in place, one scalar solve at a
// time. It is the only real TRSM: the execution kernel for every triangle.
func trsmNaive(side Side, uplo UpLo, tt Trans, diag Diag, t, b *Matrix) {
	n := t.Rows
	// Effective triangle after transposition.
	effLower := (uplo == Lower) != (tt == DoTrans)
	at := func(i, j int) float64 {
		if tt == DoTrans {
			return t.At(j, i)
		}
		return t.At(i, j)
	}
	if side == Left {
		// Solve op(t) X = b column by column.
		for j := 0; j < b.Cols; j++ {
			x := b.Data[j*b.Rows : (j+1)*b.Rows]
			if effLower {
				for i := 0; i < n; i++ {
					s := x[i]
					for k := 0; k < i; k++ {
						s -= at(i, k) * x[k]
					}
					if diag == NonUnit {
						s /= at(i, i)
					}
					x[i] = s
				}
			} else {
				for i := n - 1; i >= 0; i-- {
					s := x[i]
					for k := i + 1; k < n; k++ {
						s -= at(i, k) * x[k]
					}
					if diag == NonUnit {
						s /= at(i, i)
					}
					x[i] = s
				}
			}
		}
		return
	}
	// side == Right: X op(t) = b. Equivalent to op(t)ᵀ Xᵀ = bᵀ; iterate
	// over columns of op(t).
	m := b.Rows
	if effLower {
		// X[:,j] determined from highest j downward: b_j = sum_{k>=j} X_k t_kj.
		for j := n - 1; j >= 0; j-- {
			xj := b.Data[j*m : (j+1)*m]
			for k := j + 1; k < n; k++ {
				tkj := at(k, j)
				if tkj == 0 {
					continue
				}
				xk := b.Data[k*m : (k+1)*m]
				for i := 0; i < m; i++ {
					xj[i] -= tkj * xk[i]
				}
			}
			if diag == NonUnit {
				d := at(j, j)
				for i := 0; i < m; i++ {
					xj[i] /= d
				}
			}
		}
	} else {
		for j := 0; j < n; j++ {
			xj := b.Data[j*m : (j+1)*m]
			for k := 0; k < j; k++ {
				tkj := at(k, j)
				if tkj == 0 {
					continue
				}
				xk := b.Data[k*m : (k+1)*m]
				for i := 0; i < m; i++ {
					xj[i] -= tkj * xk[i]
				}
			}
			if diag == NonUnit {
				d := at(j, j)
				for i := 0; i < m; i++ {
					xj[i] /= d
				}
			}
		}
	}
}
