// Package zselinv is the complex-shift selected inversion used by true
// pole expansion: given the symbolic analysis of a real structurally
// symmetric matrix A, it computes the selected elements of (A − zI)⁻¹ for
// a complex pole z, reusing A's block pattern (shifting the diagonal does
// not change the sparsity). This is the per-pole kernel of PEXSI, where
// the poles zₗ lie off the real axis so the shifted systems are uniformly
// nonsingular.
//
// The implementation is the serial REFERENCE for the distributed complex
// engine: it shares the numeric factorization (factor.FactorizeShifted)
// and the element-generic dense kernels with internal/pselinv, and its
// second pass brackets every reduction the way a single engine rank does —
// each contribution is computed into its own zeroed slot with a beta=1
// GEMM, the slots are folded in ascending structure order, and the fold is
// negated (off-diagonal) or subtracted from the diagonal inverse — so a
// one-rank parallel run is bit-identical to this reference, and a run on
// several ranks, which brackets the same sums along its reduce trees,
// agrees with it to rounding.
package zselinv

import (
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
)

type blockKey struct{ I, J int }

// Result holds the selected elements of (A − zI)⁻¹ over A's block pattern.
// The blocks are complex dense.Matrix values (interleaved storage).
type Result struct {
	BP   *etree.BlockPattern
	Z    complex128
	Ainv map[blockKey]*dense.Matrix
	lu   *factor.LU
}

// Block returns the (i, j) block of the selected inverse when present.
func (r *Result) Block(i, j int) (*dense.Matrix, bool) {
	b, ok := r.Ainv[blockKey{i, j}]
	return b, ok
}

// Entry returns ((A−zI)⁻¹)ᵢⱼ for PERMUTED indices (the ordering of the
// analysis), with ok=false outside the computed pattern.
func (r *Result) Entry(i, j int) (complex128, bool) {
	part := r.BP.Part
	bi, bj := part.SnodeOf[i], part.SnodeOf[j]
	b, ok := r.Block(bi, bj)
	if !ok {
		return 0, false
	}
	return b.ZAt(i-part.Start[bi], j-part.Start[bj]), true
}

// LogDet returns log det(A − zI) accumulated from the diagonal pivots
// (principal branch per pivot).
func (r *Result) LogDet() complex128 { return r.lu.LogDet() }

// Release returns every block of the selected inverse to the dense arena.
// The result must not be used afterwards. Callers that extract what they
// need per pole (like the batch engine's diagonal readout) release each
// result so the next pole reuses the same storage; callers that hand the
// blocks on (the root API's block-matrix conversion) must not.
func (r *Result) Release() {
	for _, m := range r.Ainv {
		dense.PutMatrix(m)
	}
	r.Ainv = nil
}

// SelInvShifted factorizes A − zI over the analysis' block pattern and
// runs both passes of the selected inversion.
func SelInvShifted(an *etree.Analysis, z complex128) (*Result, error) {
	lu, err := factor.FactorizeShifted(an.A, z, an.BP)
	if err != nil {
		return nil, err
	}
	return SelInvFromLU(lu, z), nil
}

// SelInvFromLU runs the two selected-inversion passes over an existing
// complex factorization of A − zI (shared with the distributed engine via
// Engine.Rebind in batch mode).
func SelInvFromLU(lu *factor.LU, z complex128) *Result {
	bp := lu.BP
	part := bp.Part
	ns := bp.NumSnodes()

	// Pass 1: L̂_{I,K} = L_{I,K}·L_KK⁻¹ and Û_{K,I} = U_KK⁻¹·U_{K,I}. The
	// normalized copies live on the dense arena and are recycled when the
	// run finishes, so repeated poles reuse their storage.
	lhat := map[blockKey]*dense.Matrix{}
	uhat := map[blockKey]*dense.Matrix{}
	defer func() {
		for _, m := range lhat {
			dense.PutMatrix(m)
		}
		for _, m := range uhat {
			dense.PutMatrix(m)
		}
	}()
	for k := ns - 1; k >= 0; k-- {
		dk := lu.Diag[k]
		for _, i := range bp.Struct(k) {
			x := dense.GetMatrixCopy(lu.F.MustGet(i, k))
			dense.Trsm(dense.Right, dense.Lower, dense.NoTrans, dense.Unit, dk, x)
			lhat[blockKey{i, k}] = x
			y := dense.GetMatrixCopy(lu.F.MustGet(k, i))
			dense.Trsm(dense.Left, dense.Upper, dense.NoTrans, dense.NonUnit, dk, y)
			uhat[blockKey{k, i}] = y
		}
	}

	// Pass 2, in a single engine rank's bracketing: every contribution
	// lands in a zeroed slot via a beta=1 GEMM; the fold adds the slots in
	// ascending structure order into a zeroed sum.
	res := &Result{BP: bp, Z: z, Ainv: map[blockKey]*dense.Matrix{}, lu: lu}
	ainv := res.Ainv
	for k := ns - 1; k >= 0; k-- {
		c := bp.Struct(k)
		wk := part.Width(k)
		if len(c) == 0 {
			d := dense.GetMatrixElem(wk, wk, dense.Complex)
			lu.DiagInverseTo(k, d)
			ainv[blockKey{k, k}] = d
			continue
		}
		// Lower targets: A⁻¹_{J,K} = −Σ_{i∈C} A⁻¹_{J,I}·L̂_{I,K}.
		for _, j := range c {
			sum := dense.GetMatrixElem(part.Width(j), wk, dense.Complex)
			for _, i := range c {
				slot := dense.GetMatrixElem(part.Width(j), wk, dense.Complex)
				dense.Gemm(dense.NoTrans, dense.NoTrans, 1, ainv[blockKey{j, i}], lhat[blockKey{i, k}], 1, slot)
				sum.AddScaled(1, slot)
				dense.PutMatrix(slot)
			}
			sum.Scale(-1)
			ainv[blockKey{j, k}] = sum
		}
		// Upper targets: A⁻¹_{K,J} = −Σ_{i∈C} Û_{K,I}·A⁻¹_{I,J}.
		for _, j := range c {
			sum := dense.GetMatrixElem(wk, part.Width(j), dense.Complex)
			for _, i := range c {
				slot := dense.GetMatrixElem(wk, part.Width(j), dense.Complex)
				dense.Gemm(dense.NoTrans, dense.NoTrans, 1, uhat[blockKey{k, i}], ainv[blockKey{i, j}], 1, slot)
				sum.AddScaled(1, slot)
				dense.PutMatrix(slot)
			}
			sum.Scale(-1)
			ainv[blockKey{k, j}] = sum
		}
		// Diagonal: A⁻¹_{K,K} = (A_KK)⁻¹ − Σ_{j∈C} Û_{K,J}·A⁻¹_{J,K}.
		dsum := dense.GetMatrixElem(wk, wk, dense.Complex)
		for _, j := range c {
			slot := dense.GetMatrixElem(wk, wk, dense.Complex)
			dense.Gemm(dense.NoTrans, dense.NoTrans, 1, uhat[blockKey{k, j}], ainv[blockKey{j, k}], 1, slot)
			dsum.AddScaled(1, slot)
			dense.PutMatrix(slot)
		}
		d := dense.GetMatrixElem(wk, wk, dense.Complex)
		lu.DiagInverseTo(k, d)
		d.AddScaled(-1, dsum)
		dense.PutMatrix(dsum)
		ainv[blockKey{k, k}] = d
	}
	return res
}
