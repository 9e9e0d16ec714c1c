// Package factor implements the sequential supernodal right-looking block
// LU factorization that feeds selected inversion. It plays the role
// SuperLU_DIST plays for PSelInv: producing the L and U factors whose
// blocks the selected-inversion phase consumes.
//
// The factorization is unpivoted: the matrices produced by internal/sparse
// generators are strictly diagonally dominant, for which unpivoted LU is
// backward stable. (The paper likewise treats the factorization as a given
// preprocessing step.)
package factor

import (
	"fmt"
	"math"
	"math/cmplx"

	"pselinv/internal/blockmat"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/sparse"
)

// LU is a supernodal block LU factorization A = L·U.
//
//   - Diag[K] holds the dense in-place LU of the K-th diagonal block: its
//     strict lower triangle is L_KK (unit diagonal implied) and its upper
//     triangle is U_KK.
//   - F stores off-diagonal factor blocks: (I, K) with I > K is
//     L_{I,K} = A'_{I,K} U_KK⁻¹ and (K, I) is U_{K,I} = L_KK⁻¹ A'_{K,I},
//     where A' is the partially eliminated matrix.
type LU struct {
	BP   *etree.BlockPattern
	Diag []*dense.Matrix
	F    *blockmat.BlockMatrix
	// Elem is the element type of every factor block: Real for Factorize,
	// Complex for FactorizeShifted.
	Elem dense.Elem
	// Symmetric records that the input's values are symmetric within SymTol
	// (plain transpose: A − zI is when A is), so Û = L̂ᵀ and a symmetric plan
	// may run on the factorization. Callers select the plan by it.
	Symmetric bool
	// FactorFlops is the floating-point operation count of the numeric
	// factorization, used as the SuperLU_DIST cost reference by the timing
	// simulator.
	FactorFlops int64
}

// LBlock returns L_{I,K} (I > K); the boolean is false for structural zeros.
func (lu *LU) LBlock(i, k int) (*dense.Matrix, bool) {
	if i <= k {
		panic(fmt.Sprintf("factor: LBlock(%d,%d) not strictly below diagonal", i, k))
	}
	return lu.F.Get(i, k)
}

// UBlock returns U_{K,J} (J > K).
func (lu *LU) UBlock(k, j int) (*dense.Matrix, bool) {
	if j <= k {
		panic(fmt.Sprintf("factor: UBlock(%d,%d) not strictly right of diagonal", k, j))
	}
	return lu.F.Get(k, j)
}

// Factorize computes the block LU factorization of a (which must already be
// permuted to the ordering the block pattern was computed for).
func Factorize(a *sparse.CSC, bp *etree.BlockPattern) (*LU, error) {
	work := blockmat.FromCSC(bp.Part, a)
	return factorize(work, bp, dense.Real, a.IsSymmetric(SymTol))
}

// FactorizeShifted computes the block LU factorization of A − zI over the
// same block pattern as the real matrix: the complex shift only touches
// the diagonal, so the symbolic analysis (and every engine template built
// on it) is shared with the real problem. The factor blocks are complex
// (interleaved storage), and the numeric loop is exactly the loop
// Factorize runs — the dense kernels dispatch on the element type.
func FactorizeShifted(a *sparse.CSC, z complex128, bp *etree.BlockPattern) (*LU, error) {
	part := bp.Part
	work := blockmat.NewElem(part, dense.Complex)
	for j := 0; j < a.N; j++ {
		kj := part.SnodeOf[j]
		jc := j - part.Start[kj]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			ki := part.SnodeOf[i]
			b := work.EnsureZero(ki, kj)
			b.ZSet(i-part.Start[ki], jc, complex(a.Val[p], 0))
		}
	}
	for j := 0; j < a.N; j++ {
		kj := part.SnodeOf[j]
		jc := j - part.Start[kj]
		work.EnsureZero(kj, kj).ZAdd(jc, jc, -z)
	}
	return factorize(work, bp, dense.Complex, a.IsSymmetric(SymTol))
}

// SymTol is the value-symmetry tolerance: a matrix with
// |a(i,j) − a(j,i)| ≤ SymTol everywhere takes the symmetric path.
const SymTol = 1e-14

// factorize runs the right-looking numeric loop over an assembled block
// matrix of either element type; symmetric is the input's value symmetry.
func factorize(work *blockmat.BlockMatrix, bp *etree.BlockPattern, elem dense.Elem, symmetric bool) (*LU, error) {
	part := bp.Part
	ns := bp.NumSnodes()
	work.Elem = elem
	// Pre-create every block of the closed pattern (lower, upper, diagonal)
	// so fill lands in existing zero blocks.
	for k := 0; k < ns; k++ {
		for _, i := range bp.RowsOf[k] {
			work.EnsureZero(i, k)
			if i > k {
				work.EnsureZero(k, i)
			}
		}
	}
	lu := &LU{BP: bp, Diag: make([]*dense.Matrix, ns), F: work, Elem: elem, Symmetric: symmetric}
	for k := 0; k < ns; k++ {
		dk := work.MustGet(k, k)
		if err := dense.LU(dk); err != nil {
			return nil, fmt.Errorf("factor: supernode %d: %w", k, err)
		}
		lu.Diag[k] = dk
		w := part.Width(k)
		lu.FactorFlops += 2 * int64(w) * int64(w) * int64(w) / 3
		c := bp.Struct(k)
		for _, i := range c {
			lb := work.MustGet(i, k)
			dense.Trsm(dense.Right, dense.Upper, dense.NoTrans, dense.NonUnit, dk, lb)
			ub := work.MustGet(k, i)
			dense.Trsm(dense.Left, dense.Lower, dense.NoTrans, dense.Unit, dk, ub)
			lu.FactorFlops += dense.TrsmFlops(w, lb.Rows) + dense.TrsmFlops(w, ub.Cols)
		}
		// Schur complement update: A'_{I,J} -= L_{I,K} U_{K,J} for all
		// I, J in C(K). Closure guarantees the target blocks exist.
		for _, i := range c {
			lb := work.MustGet(i, k)
			for _, j := range c {
				ub := work.MustGet(k, j)
				target := work.MustGet(i, j)
				dense.Gemm(dense.NoTrans, dense.NoTrans, -1, lb, ub, 1, target)
				lu.FactorFlops += dense.GemmFlops(lb.Rows, ub.Cols, w)
			}
		}
	}
	return lu, nil
}

// ReconstructDense multiplies the factors back into a dense matrix — a
// testing aid for validating ‖LU − A‖.
func (lu *LU) ReconstructDense() *dense.Matrix {
	part := lu.BP.Part
	n := part.Start[len(part.Start)-1]
	ns := lu.BP.NumSnodes()
	l := dense.NewMatrix(n, n)
	u := dense.NewMatrix(n, n)
	for k := 0; k < ns; k++ {
		r0 := part.Start[k]
		dk := lu.Diag[k]
		for j := 0; j < dk.Cols; j++ {
			l.Set(r0+j, r0+j, 1)
			for i := 0; i < dk.Rows; i++ {
				if i > j {
					l.Set(r0+i, r0+j, dk.At(i, j))
				} else {
					u.Set(r0+i, r0+j, dk.At(i, j))
				}
			}
		}
		for _, i := range lu.BP.Struct(k) {
			i0 := part.Start[i]
			if lb, ok := lu.LBlock(i, k); ok {
				for c := 0; c < lb.Cols; c++ {
					for r := 0; r < lb.Rows; r++ {
						l.Set(i0+r, r0+c, lb.At(r, c))
					}
				}
			}
			if ub, ok := lu.UBlock(k, i); ok {
				for c := 0; c < ub.Cols; c++ {
					for r := 0; r < ub.Rows; r++ {
						u.Set(r0+r, i0+c, ub.At(r, c))
					}
				}
			}
		}
	}
	return dense.Mul(dense.NoTrans, dense.NoTrans, l, u)
}

// LogAbsDet returns log|det A| = Σ log|U_kk,ii| over all diagonal factor
// entries — the selected-inversion byproduct PEXSI uses for chemical
// potential bisection.
func (lu *LU) LogAbsDet() float64 {
	var s float64
	for _, dk := range lu.Diag {
		if dk.Elem == dense.Complex {
			for i := 0; i < dk.Rows; i++ {
				s += math.Log(cmplx.Abs(dk.ZAt(i, i)))
			}
			continue
		}
		for i := 0; i < dk.Rows; i++ {
			s += math.Log(math.Abs(dk.At(i, i)))
		}
	}
	return s
}

// LogDet returns log det(A) = Σ log(U_kk,ii) for a complex factorization —
// the byproduct pole expansion uses to track the analytic branch.
func (lu *LU) LogDet() complex128 {
	var s complex128
	for _, dk := range lu.Diag {
		for i := 0; i < dk.Rows; i++ {
			s += cmplx.Log(dk.ZAt(i, i))
		}
	}
	return s
}

// DiagInverseTo computes (A_KK)⁻¹ = U_KK⁻¹ · L_KK⁻¹ from the packed
// diagonal factor of supernode k into inv, overwriting its contents; inv
// must already have the supernode's square shape and element type. Pair it
// with the dense arena (GetMatrixUninitElem) to compute diagonal inverses
// without allocating.
func (lu *LU) DiagInverseTo(k int, inv *dense.Matrix) {
	dk := lu.Diag[k]
	if inv.Rows != dk.Rows || inv.Cols != dk.Rows {
		panic(fmt.Sprintf("factor: DiagInverseTo target %dx%d, want %dx%d",
			inv.Rows, inv.Cols, dk.Rows, dk.Rows))
	}
	inv.Zero()
	if dk.Elem == dense.Complex {
		for i := 0; i < dk.Rows; i++ {
			inv.ZSet(i, i, 1)
		}
	} else {
		for i := 0; i < dk.Rows; i++ {
			inv.Set(i, i, 1)
		}
	}
	dense.Trsm(dense.Left, dense.Lower, dense.NoTrans, dense.Unit, dk, inv)
	dense.Trsm(dense.Left, dense.Upper, dense.NoTrans, dense.NonUnit, dk, inv)
}
