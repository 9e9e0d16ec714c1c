package dense

// The naive kernel: the original unblocked triple-loop GEMM, the executable
// specification the blocked/tiled kernel is property-tested against and the
// fast path for tiny operands where packing overhead would dominate (the
// engine's many small supernode blocks).

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
