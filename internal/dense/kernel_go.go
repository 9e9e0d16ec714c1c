package dense

// Micro-tile dimensions shared by the packing code and both kernel
// implementations: the kernel consumes mr-row strips of packed A and
// nr-column strips of packed B.
const (
	mr = 8
	nr = 4
)

// microKernelGo is the portable register-tiled kernel: an mr×nr accumulator
// tile updated with one rank-1 step per k iteration. It is the fallback for
// machines without the assembly kernel and the reference for testing it.
func microKernelGo(kc int, alpha float64, a, b, c []float64, ldc int) {
	var acc [mr * nr]float64
	for p := 0; p < kc; p++ {
		ap := a[p*mr : p*mr+mr : p*mr+mr]
		bp := b[p*nr : p*nr+nr : p*nr+nr]
		for j := 0; j < nr; j++ {
			bj := bp[j]
			aj := acc[j*mr : j*mr+mr : j*mr+mr]
			for i := 0; i < mr; i++ {
				aj[i] += ap[i] * bj
			}
		}
	}
	for j := 0; j < nr; j++ {
		cj := c[j*ldc : j*ldc+mr : j*ldc+mr]
		aj := acc[j*mr : j*mr+mr : j*mr+mr]
		for i := 0; i < mr; i++ {
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
