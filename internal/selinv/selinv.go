// Package selinv implements the sequential selected inversion algorithm
// (Algorithm 1 of the paper) on the supernodal block storage, for either
// element type: a real factorization (factor.Factorize) of symmetric or
// general values, or the complex factorization of A − zI
// (factor.FactorizeShifted) that pole expansion inverts once per pole. It
// is the correctness reference for the distributed implementation in
// internal/pselinv, and the single-process path of the public API.
//
// The second pass brackets every reduction the way a single engine rank
// does — each contribution is computed into its own zeroed slot with a
// beta=1 GEMM, the slots are folded in ascending structure order, and the
// fold is negated (off-diagonal) or subtracted from the diagonal inverse —
// and takes the form of the plan the values select: two-sided for general
// values, and for symmetric ones, whose factorization stores no U, the
// symmetric plan's (Û_{K,I} read as L̂_{I,K}ᵀ, A⁻¹_{K,J} mirrored from
// A⁻¹_{J,K}, the diagonal block L_KK⁻ᵀ·D_K⁻¹·L_KK⁻¹ less the lower triangle
// of its fold, mirrored). So a one-rank run of that plan is bit-identical to
// this reference; a run on several ranks, which brackets the same sums along
// its reduce trees, and the general plan on symmetric values, which forms U
// from L, agree with it to rounding.
package selinv

import (
	"pselinv/internal/blockmat"
	"pselinv/internal/dense"
	"pselinv/internal/factor"
)

// pass1 computes the normalized factors of the first loop of Algorithm 1:
// L̂_{I,K} = L_{I,K}·L_KK⁻¹ stored at (I, K) and, for general values,
// Û_{K,I} = U_KK⁻¹·U_{K,I} stored at (K, I) — for symmetric ones Û_{K,I} is
// L̂_{I,K}ᵀ and the upper slots stay empty. The copies live on the dense arena.
func pass1(lu *factor.LU) (hat *blockmat.BlockMatrix) {
	bp := lu.BP
	hat = blockmat.New(bp)
	for k := bp.NumSnodes() - 1; k >= 0; k-- {
		dk := lu.Diag(k)
		for _, i := range bp.Struct(k) {
			lb, _ := lu.LBlock(i, k)
			x := dense.GetMatrixCopy(lb)
			dense.Trsm(dense.Right, dense.Lower, dense.NoTrans, dense.Unit, dk, x)
			hat.Set(i, k, x)
			if lu.Symmetric {
				continue
			}
			y := lu.UCopy(k, i)
			dense.Trsm(dense.Left, dense.Upper, dense.NoTrans, dense.NonUnit, dk, y)
			hat.Set(k, i, y)
		}
	}
	return hat
}

// addProduct adds op(a)·b to sum through a zeroed slot of its own.
func addProduct(sum *dense.Matrix, ta dense.Trans, a, b *dense.Matrix) {
	slot := dense.GetMatrixElem(sum.Rows, sum.Cols, sum.Elem)
	dense.Gemm(ta, dense.NoTrans, 1, a, b, 1, slot)
	sum.AddScaled(1, slot)
	dense.PutMatrix(slot)
}

// SelInv runs both passes of Algorithm 1 over a block LU factorization and
// returns the selected blocks of the inverse: all diagonal blocks, all
// lower-pattern blocks (I, K) and their upper mirrors (K, I), with the
// factorization's element type. The blocks are arena-backed
// (see blockmat.BlockMatrix.Release).
func SelInv(lu *factor.LU) *blockmat.BlockMatrix {
	bp := lu.BP
	part := bp.Part
	hat := pass1(lu)
	defer hat.Release()
	ainv := blockmat.New(bp)
	// Pass 2: supernodes in descending order (top-down elimination tree
	// traversal). When processing K, every block A⁻¹_{J,I} with I, J ∈ C(K)
	// has already been finalized by iterations I, J > K.
	for k := bp.NumSnodes() - 1; k >= 0; k-- {
		c := bp.Struct(k)
		wk := part.Width(k)
		// A⁻¹_{J,K} = −Σ_{I∈C} A⁻¹_{J,I}·L̂_{I,K}   (step 3)
		for _, j := range c {
			sum := dense.GetMatrixElem(part.Width(j), wk, lu.Elem)
			for _, i := range c {
				addProduct(sum, dense.NoTrans, ainv.MustGet(j, i), hat.MustGet(i, k))
			}
			sum.Scale(-1)
			ainv.Set(j, k, sum)
		}
		// A⁻¹_{K,J} = −Σ_{I∈C} Û_{K,I}·A⁻¹_{I,J}   (step 5), which for
		// symmetric values is (A⁻¹_{J,K})ᵀ.
		for _, j := range c {
			if lu.Symmetric {
				up := dense.GetMatrixUninitElem(wk, part.Width(j), lu.Elem)
				ainv.MustGet(j, k).TransposeInto(up)
				ainv.Set(k, j, up)
				continue
			}
			sum := dense.GetMatrixElem(wk, part.Width(j), lu.Elem)
			for _, i := range c {
				addProduct(sum, dense.NoTrans, hat.MustGet(k, i), ainv.MustGet(i, j))
			}
			sum.Scale(-1)
			ainv.Set(k, j, sum)
		}
		// A⁻¹_{K,K} = A_KK⁻¹ − Σ_{J∈C} Û_{K,J}·A⁻¹_{J,K}   (step 4), the sum
		// of symmetric values reduced to its lower triangle and mirrored, as the
		// symmetric plan's Diag-Reduce carries it.
		dsum := dense.GetMatrixElem(wk, wk, lu.Elem)
		for _, j := range c {
			ta, u := dense.DoTrans, hat.MustGet(j, k) // Û_{K,J} of symmetric values
			if !lu.Symmetric {
				ta, u = dense.NoTrans, hat.MustGet(k, j)
			}
			addProduct(dsum, ta, u, ainv.MustGet(j, k))
		}
		if lu.Symmetric {
			dense.MirrorLower(dsum)
		}
		d := dense.GetMatrixElem(wk, wk, lu.Elem)
		lu.DiagInverseTo(k, d)
		d.AddScaled(-1, dsum)
		dense.PutMatrix(dsum)
		ainv.Set(k, k, d)
	}
	return ainv
}
