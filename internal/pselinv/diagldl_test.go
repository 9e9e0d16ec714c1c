package pselinv

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"pselinv/internal/blockmat"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/procgrid"
	"pselinv/internal/selinv"
	"pselinv/internal/sparse"
)

// poisonUpperDiag NaN-fills the strict upper triangle of every diagonal block
// of lu: entries a factorization of symmetric values holds (U_KK) that the
// symmetric path, which reads each diagonal block as L_KK·D_K·L_KKᵀ, must
// never read.
func poisonUpperDiag(lu *factor.LU) {
	for k := 0; k < lu.BP.NumSnodes(); k++ {
		d := lu.Diag(k)
		for j := 0; j < d.Cols; j++ {
			for i := 0; i < j; i++ {
				for e := 0; e < d.Width(); e++ {
					d.Data[(i+j*d.Rows)*d.Width()+e] = math.NaN()
				}
			}
		}
	}
}

// bitsOf copies a selected inverse's blocks out, by slot
// (etree.BlockPattern.Slot): nil where no block is stored.
func bitsOf(ainv *blockmat.BlockMatrix) [][]float64 {
	out := make([][]float64, 2*ainv.BP.NNZBlocks())
	ainv.Range(func(i, j int, b *dense.Matrix) {
		s, _ := ainv.BP.Slot(i, j)
		out[s] = append([]float64(nil), b.Data...)
	})
	return out
}

// diffBits reports the first bitwise difference between two snapshots.
func diffBits(a, b [][]float64) string {
	if len(a) != len(b) {
		return "patterns differ"
	}
	for s := range a {
		if (a[s] == nil) != (b[s] == nil) || len(a[s]) != len(b[s]) {
			return "block sets differ"
		}
		for x := range a[s] {
			if math.Float64bits(a[s][x]) != math.Float64bits(b[s][x]) {
				return "entries differ"
			}
		}
	}
	return ""
}

// requireSymmetricDiagonal wants every diagonal block exactly symmetric.
func requireSymmetricDiagonal(t *testing.T, label string, ainv *blockmat.BlockMatrix) {
	t.Helper()
	for k := 0; k < ainv.BP.NumSnodes(); k++ {
		if !ainv.MustGet(k, k).IsSymmetric(0) {
			t.Fatalf("%s: diagonal block %d of A⁻¹ is not exactly symmetric", label, k)
		}
	}
}

// TestSymmetricPathReadsLowerDiagonal: the symmetric plan and the serial
// reference read each diagonal factor block only as L_KK and D_K — what the
// Diag-Bcast carries packed — so NaN in every U_KK above the diagonal moves
// no bit of their results, at P ∈ {1, 4, 16}, sequential and DAG, real and
// complex; and every diagonal block they return is exactly symmetric.
func TestSymmetricPathReadsLowerDiagonal(t *testing.T) {
	withPoolWorkers(t, 4)
	g, opt := sparse.DG2D(4, 4, 3, 2), etree.Options{Relax: 2, MaxWidth: 8}
	an, clean := bothElems(t, g, opt)
	_, poisoned := bothElems(t, g, opt)
	for x := range clean {
		poisonUpperDiag(poisoned[x])
		elem := clean[x].Elem
		ref, got := selinv.SelInv(clean[x]), selinv.SelInv(poisoned[x])
		if d := diffBits(bitsOf(ref), bitsOf(got)); d != "" {
			t.Fatalf("%s SelInv of the poisoned LU: %s", elem, d)
		}
		requireSymmetricDiagonal(t, fmt.Sprintf("%s SelInv", elem), got)
		got.Release()
		ref.Release()
		for _, procs := range []int{1, 4, 16} {
			plan := core.NewPlan(an.BP, procgrid.Squarish(procs), core.ShiftedBinaryTree, 3)
			for _, dag := range []bool{false, true} {
				label := fmt.Sprintf("%s P=%d dag=%v", elem, procs, dag)
				want := runPlan(t, plan, clean[x], dag)
				eng := NewEngine(plan, poisoned[x])
				eng.DAG = dag
				res, err := eng.Run(testTimeout)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSymmetricDiagonal(t, label, res.Ainv)
				if d := diffBits(want, blocksOf(res)); d != "" {
					t.Fatalf("%s, poisoned LU: %s", label, d)
				}
			}
		}
	}
}

// selectedEntry reads X(i, j) of a selected inverse of either element type,
// failing when its block was not selected.
func selectedEntry(t *testing.T, x *blockmat.BlockMatrix, i, j int) complex128 {
	part := x.BP.Part
	ki, kj := part.SnodeOf[i], part.SnodeOf[j]
	b, ok := x.Get(ki, kj)
	if !ok {
		t.Fatalf("entry (%d,%d): block (%d,%d) not selected", i, j, ki, kj)
	}
	r, c := i-part.Start[ki], j-part.Start[kj]
	if b.Elem == dense.Complex {
		return b.ZAt(r, c)
	}
	return complex(b.At(r, c), 0)
}

// certificate returns ‖diag((A − zI)·X) − 1‖∞ for the selected inverse X of
// a, in the block pattern's ordering. (A·X)_ii = Σ_j A_ij·X_ji reads X only
// on the transposed pattern of A, which the closed pattern of L + U holds, so
// the check costs O(nnz(A)) and shares no factor, kernel or reference with
// what produced X.
func certificate(t *testing.T, a *sparse.CSC, x *blockmat.BlockMatrix, z complex128) float64 {
	t.Helper()
	diag := make([]complex128, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			diag[a.RowIdx[p]] += complex(a.Val[p], 0) * selectedEntry(t, x, j, a.RowIdx[p])
		}
		diag[j] -= z * selectedEntry(t, x, j, j)
	}
	worst := 0.0
	for _, d := range diag {
		worst = max(worst, cmplx.Abs(d-1))
	}
	return worst
}

// TestReferenceFreeCertificate holds the plan the values select — symmetric
// on these generators — to ‖diag(A·A⁻¹) − 1‖∞ ≤ 1e-12 on four generators,
// real and complex-shifted, at P ∈ {1, 4, 16}, and logs the largest it saw
// (2.3e-15 on the machine the bound was set on).
func TestReferenceFreeCertificate(t *testing.T) {
	worst := 0.0
	for _, g := range []*sparse.Generated{
		sparse.DG2D(4, 4, 3, 2), sparse.Grid2D(7, 6, 3), sparse.RandomSym(40, 4, 3), sparse.Banded(30, 3, 5),
	} {
		an, lus := bothElems(t, g, etree.Options{Relax: 2, MaxWidth: 8})
		for x, lu := range lus {
			z := []complex128{0, complex(0.5, 1.5)}[x] // bothElems's shift
			for _, procs := range []int{1, 4, 16} {
				plan := core.NewPlanConfig(an.BP, procgrid.Squarish(procs), core.PlanConfig{
					Scheme: core.ShiftedBinaryTree, Seed: 1, Symmetric: lu.Symmetric})
				res, err := NewEngine(plan, lu).Run(testTimeout)
				if err != nil {
					t.Fatal(err)
				}
				c := certificate(t, an.A, res.Ainv, z)
				res.Release()
				if !(c <= 1e-12) {
					t.Errorf("%s %s P=%d: ‖diag(A·A⁻¹) − 1‖∞ = %.3g", g.Name, lu.Elem, procs, c)
				}
				worst = max(worst, c)
			}
		}
	}
	t.Logf("largest ‖diag(A·A⁻¹) − 1‖∞: %.3g", worst)
}
