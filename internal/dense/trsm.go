package dense

// trsmBase is the order at or below which trsm solves a triangle by
// substitution; larger ones split in two.
const trsmBase = 4

// Trsm solves a triangular system in place, overwriting b with the solution X:
//
//	side == Left:  op(t) * X = b
//	side == Right: X * op(t) = b
//
// t must be square and its relevant dimension must match b. The solve runs
// on the caller's goroutine; complex operands take the same path in complex
// arithmetic.
func Trsm(side Side, uplo UpLo, tt Trans, diag Diag, t, b *Matrix) {
	w := checkElem("Trsm", t, b).Width()
	n := t.Rows
	if t.Cols != n {
		panic("dense: Trsm triangular operand not square")
	}
	if side == Left && b.Rows != n || side == Right && b.Cols != n {
		panic("dense: Trsm shape mismatch")
	}
	// The effective triangle of op(t) is the transposed one's; b's other
	// dimension counts the right-hand sides.
	trsm(w, side, (uplo == Lower) != (tt == DoTrans), diag == Unit,
		view{data: t.Data, ld: n, t: tt == DoTrans}, view{data: b.Data, ld: b.Rows}, n, b.Rows+b.Cols-n)
}

// trsm is Trsm on views: op(t) is an order-n triangle, lower or upper in
// effect, and b holds m right-hand sides (n×m for Left, m×n for Right).
// Above trsmBase it splits the triangle, solves the half f the other
// depends on, subtracts f's contribution from the other's right-hand sides
// with one gemm and solves that: all but the diagonal blocks run in gemm.
func trsm(w int, side Side, lower, unit bool, t, b view, n, m int) {
	if n == 0 || m == 0 {
		return
	}
	if n <= trsmBase {
		_, rs, cs := t.strip(0, 0) // op(t)(i, j) is entry i*rs+j*cs
		if w == 2 {
			trsmBlock(side, lower, unit, complexView(t.data), rs, cs, complexView(b.data), b.ld, n, m)
		} else {
			trsmBlock(side, lower, unit, t.data, rs, cs, b.data, b.ld, n, m)
		}
		return
	}
	n1 := (n/2 + trsmBase - 1) / trsmBase * trsmBase
	off, size := [2]int{0, n1}, [2]int{n1, n - n1}
	f, s := 0, 1 // forward: the first half first
	if lower != (side == Left) {
		f, s = 1, 0
	}
	half := func(h int) view {
		if side == Left {
			return b.at(off[h], 0, w)
		}
		return b.at(0, off[h], w)
	}
	trsm(w, side, lower, unit, t.at(off[f], off[f], w), half(f), size[f], m)
	if side == Left {
		gemm(w, -1, t.at(off[s], off[f], w), half(f), half(s), size[s], m, size[f])
	} else {
		gemm(w, -1, half(f), t.at(off[f], off[s], w), half(s), m, size[s], size[f])
	}
	trsm(w, side, lower, unit, t.at(off[s], off[s], w), half(s), size[s], m)
}

// trsmBlock is trsm's substitution for n ≤ trsmBase on the element slices:
// op(t)(i, j) is t[i*rs+j*cs] and b's columns lie ldb apart. Each unknown
// takes one naive-loop column update — the rows of b after it (forward) or
// before it (backward) by op(t)'s column for Left, b's column by the final
// ones for Right — and a non-unit diagonal multiplies by its reciprocal.
func trsmBlock[T float64 | complex128](side Side, lower, unit bool, t []T, rs, cs int, b []T, ldb, n, m int) {
	for s := 0; s < n; s++ {
		if side == Left {
			k, i0, i1 := s, s+1, n
			if !lower {
				k, i0, i1 = n-1-s, 0, n-1-s
			}
			if !unit {
				r := 1 / t[k*(rs+cs)]
				for j := range m {
					b[k+j*ldb] *= r
				}
			}
			if i0 < i1 { // op(t)'s column k: a column, or a row of t
				naiveLoops(-1, t[i0*rs+k*cs:], rs, rs != 1, b[k:], 1, ldb, b[i0:], ldb, i1-i0, m, 1)
			}
			continue
		}
		j, k0, k1 := s, 0, s
		if lower {
			j, k0, k1 = n-1-s, n-s, n
		}
		if k0 < k1 {
			naiveLoops(-1, b[k0*ldb:], ldb, false, t[k0*rs+j*cs:], rs, cs, b[j*ldb:], ldb, m, 1, k1-k0)
		}
		if !unit {
			r := 1 / t[j*(rs+cs)]
			for i := range m {
				b[i+j*ldb] *= r
			}
		}
	}
}
