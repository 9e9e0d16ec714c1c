//go:build amd64

package dense

// hasAsmKernel reports whether the AVX2+FMA assembly micro-kernel can run
// on this machine (requires OS-enabled AVX state, AVX2 and FMA3).
var hasAsmKernel = detectAVX2FMA()

//go:noescape
func dgemmKernel8x4(kc int64, alpha float64, a *float64, as int64, b *float64, bk, bj int64, c *float64, ldc int64)

//go:noescape
func pack1MStrip(n int64, src *float64, ld int64, dst *float64)

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// The OS must have enabled XMM+YMM state saving (XCR0 bits 1 and 2).
	xeax, _ := xgetbv0()
	if xeax&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// microKernel computes c[i+j*ldc] += alpha * Σ_p a[p*as+i]*b[p*bk+j*bj] for
// a full mr×nr tile (see microKernelGo).
func microKernel(kc int, alpha float64, a []float64, as int, b []float64, bk, bj int, c []float64, ldc int) {
	if hasAsmKernel {
		if kc > 0 {
			_, _ = a[(kc-1)*as+mr-1], b[(kc-1)*bk+(nr-1)*bj]
		}
		_ = c[(nr-1)*ldc+mr-1]
		dgemmKernel8x4(int64(kc), alpha, &a[0], int64(as), &b[0], int64(bk), int64(bj), &c[0], int64(ldc))
		return
	}
	microKernelGo(kc, alpha, a, as, b, bk, bj, c, ldc)
}

// pack1M is pack1MGo, in assembly where the machine runs it.
func pack1M(n int, src []float64, ld int, dst []float64) {
	if hasAsmKernel && n > 0 {
		_, _ = src[(n-1)*ld+mr-1], dst[2*mr*n-1]
		pack1MStrip(int64(n), &src[0], int64(ld), &dst[0])
		return
	}
	pack1MGo(n, src, ld, dst)
}
