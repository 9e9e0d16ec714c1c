package dense

// Trsm solves a triangular system in place, overwriting b with the solution X:
//
//	side == Left:  op(t) * X = b
//	side == Right: X * op(t) = b
//
// t must be square and its relevant dimension must match b. The solve is
// one scalar substitution on the caller's goroutine, sized for supernodal
// blocks: every triangle the system issues is at most MaxWidth (48 by
// default) wide. Complex operands take the same loops in complex arithmetic.
func Trsm(side Side, uplo UpLo, tt Trans, diag Diag, t, b *Matrix) {
	checkElem("Trsm", t, b)
	n := t.Rows
	if t.Cols != n {
		panic("dense: Trsm triangular operand not square")
	}
	if side == Left && b.Rows != n || side == Right && b.Cols != n {
		panic("dense: Trsm shape mismatch")
	}
	// op(t)(i, j) is t[i*rs + j*cs]; the effective triangle is the transposed one's.
	lower, rs, cs := (uplo == Lower) != (tt == DoTrans), 1, n
	if tt == DoTrans {
		rs, cs = n, 1
	}
	if t.Elem == Complex {
		trsm(side, lower, diag == Unit, complexView(t.Data), rs, cs, complexView(b.Data), b.Rows, b.Cols)
	} else {
		trsm(side, lower, diag == Unit, t.Data, rs, cs, b.Data, b.Rows, b.Cols)
	}
}

// trsm is Trsm on the element slices, b rows×cols. Each side walks the
// unknowns in dependency order: position x is index x, depending on [0, x),
// for a forward sweep (Left/lower, Right/upper) and index n-1-x, depending on
// [n-x, n), for a backward one.
func trsm[T float64 | complex128](side Side, lower, unit bool, t []T, rs, cs int, b []T, rows, cols int) {
	if side == Left {
		n := rows
		for j := 0; j < cols; j++ {
			x := b[j*rows : (j+1)*rows]
			for step := 0; step < n; step++ {
				i, k0, k1 := step, 0, step
				if !lower {
					i, k0, k1 = n-1-step, n-step, n
				}
				s := x[i]
				for k := k0; k < k1; k++ {
					s -= t[i*rs+k*cs] * x[k]
				}
				if !unit {
					s /= t[i*(rs+cs)]
				}
				x[i] = s
			}
		}
		return
	}
	n := cols
	for step := 0; step < n; step++ {
		j, k0, k1 := step, 0, step
		if lower {
			j, k0, k1 = n-1-step, n-step, n
		}
		xj := b[j*rows : (j+1)*rows]
		for k := k0; k < k1; k++ {
			tkj := t[k*rs+j*cs]
			if tkj == 0 {
				continue
			}
			xk := b[k*rows:][:len(xj)]
			for i, v := range xk {
				xj[i] -= tkj * v
			}
		}
		if !unit {
			d := t[j*(rs+cs)]
			for i := range xj {
				xj[i] /= d
			}
		}
	}
}
