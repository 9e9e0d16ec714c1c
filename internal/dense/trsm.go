package dense

// Trsm solves a triangular system in place, overwriting b with the solution X:
//
//	side == Left:  op(t) * X = b
//	side == Right: X * op(t) = b
//
// t must be square and its relevant dimension must match b. The solve is
// one scalar substitution on the caller's goroutine, sized for supernodal
// blocks: every triangle the system issues is at most MaxWidth (48 by
// default) wide.
func Trsm(side Side, uplo UpLo, tt Trans, diag Diag, t, b *Matrix) {
	if t.Elem == Complex || b.Elem == Complex {
		zTrsm(side, uplo, tt, diag, t, b)
		return
	}
	n := t.Rows
	if t.Cols != n {
		panic("dense: Trsm triangular operand not square")
	}
	if side == Left && b.Rows != n || side == Right && b.Cols != n {
		panic("dense: Trsm shape mismatch")
	}
	trsmNaive(side, uplo, tt, diag, t, b)
}
