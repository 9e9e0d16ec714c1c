package dense

// Micro-tile dimensions shared by the packing code and both kernel
// implementations: the kernel consumes mr-row strips of A and nr-column
// strips of B.
const (
	mr = 8
	nr = 4
)

// microKernelGo is the portable register-tiled kernel, c[i+j*ldc] += alpha ·
// Σ_p a[p*as+i]·b[p*bk+j*bj] over an mr×nr tile: a packed panel (as = mr,
// bk = nr, bj = 1) and an operand in place differ only in the strides. It is
// the fallback for machines without the assembly kernel and the reference
// for testing it; where the compiler does not fuse a multiply-add (amd64
// before v3) its roundings differ from the assembly's FMAs.
func microKernelGo(kc int, alpha float64, a []float64, as int, b []float64, bk, bj int, c []float64, ldc int) {
	var acc [mr * nr]float64
	for p := 0; p < kc; p++ {
		ap := a[p*as : p*as+mr : p*as+mr]
		bp := b[p*bk:]
		for j := 0; j < nr; j++ {
			bv := bp[j*bj]
			aj := acc[j*mr : j*mr+mr : j*mr+mr]
			for i := range aj {
				aj[i] += ap[i] * bv
			}
		}
	}
	for j := 0; j < nr; j++ {
		cj := c[j*ldc : j*ldc+mr : j*ldc+mr]
		aj := acc[j*mr : j*mr+mr : j*mr+mr]
		for i := range cj {
			cj[i] += alpha * aj[i]
		}
	}
}

// pack1MGo writes n column pairs of a full mr-row strip of a complex A's 1M
// image (packAZ): the mr words at src[P*ld:] go to real column 2P as they
// are and to 2P+1 as (−im, re) pairs. It is the fallback for the assembly
// pack and the reference for testing it.
func pack1MGo(n int, src []float64, ld int, dst []float64) {
	for p := 0; p < n; p++ {
		a := (*[mr]float64)(src[p*ld:])
		d := (*[2 * mr]float64)(dst[2*p*mr:])
		for r := 0; r < mr; r += 2 {
			d[r], d[r+1], d[mr+r], d[mr+r+1] = a[r], a[r+1], -a[r+1], a[r]
		}
	}
}
