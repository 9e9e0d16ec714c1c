//go:build !amd64

package dense

// hasAsmKernel is false on architectures without an assembly micro-kernel;
// the portable Go tile kernel is used instead.
const hasAsmKernel = false

func microKernel(kc int, alpha float64, a, b, c []float64, ldc int) {
	microKernelGo(kc, alpha, a, b, c, ldc)
}

func pack1M(n int, src []float64, ld int, dst []float64) {
	pack1MGo(n, src, ld, dst)
}
