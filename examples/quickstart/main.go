// Quickstart: compute selected elements of A⁻¹ for a sparse symmetric
// matrix, sequentially and in parallel, and inspect the communication
// volumes of the parallel run.
package main

import (
	"fmt"
	"log"

	"pselinv"
)

func main() {
	// A 2D Laplacian-like matrix on a 16x16 grid (n = 256).
	m := pselinv.Grid2D(16, 16, 42)
	fmt.Printf("matrix %s: n=%d, nnz=%d\n", m.Name(), m.N(), m.NNZ())

	// Order, analyze, factorize.
	sys, err := pselinv.NewSystem(m, pselinv.Options{Ordering: pselinv.OrderNestedDissection})
	if err != nil {
		log.Fatal(err)
	}

	// Sequential selected inversion: every entry (A⁻¹)ᵢⱼ with Aᵢⱼ ≠ 0.
	inv, err := sys.SelInv()
	if err != nil {
		log.Fatal(err)
	}
	diag := inv.Diagonal()
	fmt.Printf("diag(A⁻¹)[0..4] = %.6f %.6f %.6f %.6f %.6f\n",
		diag[0], diag[1], diag[2], diag[3], diag[4])

	// Off-diagonal selected entries are available too.
	if v, ok := inv.Entry(0, 1); ok {
		fmt.Printf("(A⁻¹)[0,1] = %.6f\n", v)
	}

	// The same computation on 16 simulated MPI ranks with the paper's
	// Shifted Binary-Tree collectives.
	par, err := sys.ParallelSelInv(16, pselinv.ShiftedBinaryTree, 1)
	if err != nil {
		log.Fatal(err)
	}
	pd, _ := par.Entry(0, 0)
	fmt.Printf("parallel (A⁻¹)[0,0] = %.6f (matches sequential: %v)\n",
		pd, abs(pd-diag[0]) < 1e-12)
	fmt.Printf("parallel run: %d ranks, max %.3f MB sent per rank, %v wall\n",
		par.Procs(), par.MaxSentMB(), par.Elapsed)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
