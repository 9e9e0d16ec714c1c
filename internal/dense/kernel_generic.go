//go:build !amd64

package dense

// hasAsmKernel is false on architectures without an assembly micro-kernel;
// the portable Go tile kernel is used instead.
const hasAsmKernel = false

func microKernel(kc int, alpha float64, a []float64, as int, b []float64, bk, bj int, c []float64, ldc int) {
	microKernelGo(kc, alpha, a, as, b, bk, bj, c, ldc)
}

func pack1M(n int, src []float64, ld int, dst []float64) { pack1MGo(n, src, ld, dst) }
