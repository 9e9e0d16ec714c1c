package dense

// naiveLoops computes c += alpha·op(a)·op(b) with the unblocked loops, for
// either element type: the fast path for tiny operands, where the blocked
// path's set-up would dominate. c is m×n with columns ldc apart, op(a) m×k
// over a's columns lda apart, and op(b)(p, j) is b[p*bp+j*bj]. The loop nest
// walks a's columns contiguously: axpy updates of c's column for a as
// stored, dot products with op(b)'s columns for a transposed.
func naiveLoops[T float64 | complex128](alpha T, a []T, lda int, aT bool, b []T, bp, bj int, c []T, ldc, m, n, k int) {
	if aT {
		for j := 0; j < n; j++ {
			cj, bcol := c[j*ldc:j*ldc+m], b[j*bj:] // bcol[p*bp] is op(b)(p, j)
			for i := range cj {
				var s T
				for p, v := range a[i*lda : i*lda+k] { // column i of a == row i of aᵀ
					s += v * bcol[p*bp]
				}
				cj[i] += alpha * s
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		cj := c[j*ldc : j*ldc+m]
		for p := 0; p < k; p++ {
			bpj := alpha * b[p*bp+j*bj]
			if bpj == 0 {
				continue
			}
			for i, v := range a[p*lda:][:len(cj)] {
				cj[i] += bpj * v
			}
		}
	}
}
