package dense

// gemmNaive computes c += alpha*op(a)*op(b) with the original unblocked
// loops, for either element type: the executable specification the blocked
// kernel is property-tested against and the fast path for tiny operands,
// where packing overhead would dominate. Shapes are assumed validated by the
// caller; beta has already been applied to c.
func gemmNaive(ta, tb Trans, alpha float64, a, b, c *Matrix) {
	// op(b)(p, j) is element p*bp+j*bj of b.
	bp, bj := 1, b.Rows
	if tb == DoTrans {
		bp, bj = b.Rows, 1
	}
	k := a.Cols
	if ta == DoTrans {
		k = a.Rows
	}
	if c.Elem == Complex {
		naiveLoops(ta == DoTrans, complex(alpha, 0), complexView(a.Data), complexView(b.Data), bp, bj,
			complexView(c.Data), c.Rows, c.Cols, k)
		return
	}
	naiveLoops(ta == DoTrans, alpha, a.Data, b.Data, bp, bj, c.Data, c.Rows, c.Cols, k)
}

// naiveLoops is gemmNaive on the element slices, c m×n, with the loop nest
// that walks a's columns contiguously: axpy updates of c's column for a as
// stored, dot products with op(b)'s columns for a transposed.
func naiveLoops[T float64 | complex128](aT bool, alpha T, a, b []T, bp, bj int, c []T, m, n, k int) {
	if aT {
		for j := 0; j < n; j++ {
			cj, bcol := c[j*m:(j+1)*m], b[j*bj:] // bcol[p*bp] is op(b)(p, j)
			for i := range cj {
				var s T
				for p, v := range a[i*k : (i+1)*k] { // column i of a == row i of aᵀ
					s += v * bcol[p*bp]
				}
				cj[i] += alpha * s
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		cj := c[j*m : (j+1)*m]
		for p := 0; p < k; p++ {
			bpj := alpha * b[p*bp+j*bj]
			if bpj == 0 {
				continue
			}
			for i, v := range a[p*m : (p+1)*m] {
				cj[i] += bpj * v
			}
		}
	}
}
