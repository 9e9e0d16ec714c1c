// Package factor implements the sequential supernodal right-looking block
// LU factorization that feeds selected inversion. It plays the role
// SuperLU_DIST plays for PSelInv: producing the L and U factors whose
// blocks the selected-inversion phase consumes.
//
// The factorization is unpivoted: the matrices produced by internal/sparse
// generators are strictly diagonally dominant, for which unpivoted LU is
// backward stable; a zero, tiny or non-finite pivot is an error naming the
// supernode. (The paper likewise treats the factorization as a given
// preprocessing step.)
//
// The factor's shape — which blocks exist and where each lives in one
// buffer — is the block pattern's factor layout, computed once per analysis
// like the Scatter that maps a matrix's entries into it; its values are one
// routine, Refactorize, for either element type, into a new LU or in place,
// which is how a pole loop runs (internal/pexsi), and for symmetric values —
// the paper's case — over the lower half of the layout only: half the slab,
// one triangular solve per block, half the Schur updates.
package factor

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

// NewScatter's errors: an entry with no block in the pattern, and a layout
// whose scalar offsets overflow the map's int32.
var (
	ErrOutsidePattern = errors.New("factor: entry lies outside the block pattern")
	ErrSlabTooLarge   = errors.New("factor: factor layout exceeds 2³¹ scalars")
)

// Scatter maps a sparsity pattern's stored entries into a block pattern's
// factor layout: off[p] is the slab offset, in scalars, of stored entry p (the
// CSC's storage order), diag[c] that of diagonal entry c, where the shift
// goes. mirror[p] is where entry p's transpose is stored (nil when the
// pattern is not structurally symmetric), so reading the values' symmetry
// allocates nothing. Built once per analysis, it serves every matrix on the
// pattern.
type Scatter struct {
	bp                *etree.BlockPattern
	off, diag, mirror []int32
}

// NewScatter builds the map for a's pattern, entry (i, j) landing at
// (perm[i], perm[j]) of bp's ordering.
func NewScatter(a *sparse.CSC, perm []int, bp *etree.BlockPattern) (*Scatter, error) {
	part, n := bp.Part, len(bp.Part.SnodeOf)
	if a.N != n || len(perm) != n {
		return nil, fmt.Errorf("factor: an order-%d matrix on a block pattern of order %d", a.N, n)
	}
	if size := bp.FactorSize(true); size > 1<<31 {
		return nil, fmt.Errorf("%w: %d", ErrSlabTooLarge, size)
	}
	s := &Scatter{bp: bp, off: make([]int32, a.NNZ()), diag: make([]int32, n), mirror: a.Mirrors()}
	for j := 0; j < n; j++ {
		pj := perm[j]
		kj := part.SnodeOf[pj]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			pi := perm[a.RowIdx[p]]
			ki := part.SnodeOf[pi]
			// Block (ki, kj) is lower block (max, min) or its upper mirror.
			lo, hi := min(ki, kj), max(ki, kj)
			first, _ := bp.Slot(lo, lo)
			id, ok := bp.Slot(hi, lo)
			if !ok {
				return nil, fmt.Errorf("%w: (%d,%d)", ErrOutsidePattern, a.RowIdx[p], j)
			}
			s.off[p] = int32(bp.FactorOffset(lo, id-first, ki < kj) + pi - part.Start[ki] + (pj-part.Start[kj])*part.Width(ki))
		}
	}
	for c := range s.diag {
		k := part.SnodeOf[c]
		s.diag[c] = int32(bp.FactorOffset(k, 0, false) + (c-part.Start[k])*(part.Width(k)+1))
	}
	return s, nil
}

// symmetric reports whether val, on s's pattern, is exactly symmetric: the
// answer of CSC.IsSymmetric(0), the same comparison included.
func (s *Scatter) symmetric(val []float64) bool {
	for k, p := range s.mirror {
		if math.Abs(val[k]-val[p]) > 0 {
			return false
		}
	}
	return s.mirror != nil
}

// LU is a supernodal block LU factorization A = L·U on one slab:
//
//   - Diag(K) is the dense in-place LU of the K-th diagonal block: its
//     strict lower triangle is L_KK (unit diagonal implied) and its upper
//     triangle is U_KK.
//   - LBlock(I, K), I > K, is L_{I,K} = A'_{I,K} U_KK⁻¹ and U_{K,I} =
//     L_KK⁻¹ A'_{K,I}, where A' is the partially eliminated matrix.
//
// For symmetric values U_{K,I} = D_K·L_{I,K}ᵀ, D_K the diagonal of U_KK, so
// only the lower half of the layout — diagonal and L blocks — is eliminated
// and stored; for general values the upper half holds the U blocks. Either
// way UCopy is how a consumer reads one.
//
// The blocks are views of the slab, valid until the next Refactorize;
// consumers neither write them nor hand them to the dense arena.
type LU struct {
	BP *etree.BlockPattern
	// Elem is the element type of every factor block: Real for Factorize,
	// Complex for FactorizeShifted.
	Elem dense.Elem
	// Symmetric records that the input's values are exactly symmetric (plain
	// transpose: A − zI is when A is), so Û = L̂ᵀ and a symmetric plan may
	// run on the factorization. Callers select the plan by it.
	Symmetric bool

	slab []float64
	// blocks[s] is the block at slot s (etree.BlockPattern.Slot): the lower
	// blocks and, where the slab has an upper half, their upper mirrors; all
	// are views of slab.
	blocks []dense.Matrix
}

// New returns an empty LU on bp, ready for Refactorize, which sizes its
// storage.
func New(bp *etree.BlockPattern, elem dense.Elem) *LU { return &LU{BP: bp, Elem: elem} }

// reset zeroes the part of the slab a factorization of the current symmetry
// uses, first making the slab — in the pattern's factor layout — and the
// headers if it is too small: on first use, and when general values follow
// symmetric ones.
func (lu *LU) reset() {
	bp, ew := lu.BP, lu.Elem.Width()
	size := bp.FactorSize(!lu.Symmetric) * ew
	if len(lu.slab) >= size {
		clear(lu.slab[:size])
		return
	}
	nb, headers := bp.NNZBlocks(), bp.NNZBlocks()
	if !lu.Symmetric {
		headers += nb
	}
	lu.slab, lu.blocks = make([]float64, size), make([]dense.Matrix, headers)
	for k, rows := range bp.RowsOf {
		first, _ := bp.Slot(k, k)
		for p, i := range rows {
			w, wi := bp.Part.Width(k), bp.Part.Width(i)
			n := w * wi * ew
			lu.blocks[first+p] = dense.Matrix{Rows: wi, Cols: w, Elem: lu.Elem, Data: lu.slab[bp.FactorOffset(k, p, false)*ew:][:n:n]}
			if p > 0 && !lu.Symmetric {
				lu.blocks[nb+first+p] = dense.Matrix{Rows: w, Cols: wi, Elem: lu.Elem, Data: lu.slab[bp.FactorOffset(k, p, true)*ew:][:n:n]}
			}
		}
	}
}

// block returns stored block (i, j) of either triangle, nil for a structural
// zero.
func (lu *LU) block(i, j int) *dense.Matrix {
	if s, ok := lu.BP.Slot(i, j); ok {
		return &lu.blocks[s]
	}
	return nil
}

// Diag returns the packed LU of the k-th diagonal block.
func (lu *LU) Diag(k int) *dense.Matrix { return lu.block(k, k) }

// LBlock returns L_{I,K} (I > K); the boolean is false for structural zeros.
func (lu *LU) LBlock(i, k int) (*dense.Matrix, bool) {
	if i <= k {
		panic(fmt.Sprintf("factor: LBlock(%d,%d) not strictly below diagonal", i, k))
	}
	b := lu.block(i, k)
	return b, b != nil
}

// UCopy returns U_{K,J} (J > K) as a matrix of the dense arena, the caller's
// to overwrite and release: a copy of the stored block, or for a symmetric
// factorization D_K·L_{J,K}ᵀ, formed here. It returns nil for a structural zero.
func (lu *LU) UCopy(k, j int) *dense.Matrix {
	if j <= k {
		panic(fmt.Sprintf("factor: UCopy(%d,%d) not strictly right of diagonal", k, j))
	}
	if !lu.Symmetric {
		if b := lu.block(k, j); b != nil {
			return dense.GetMatrixCopy(b)
		}
		return nil
	}
	l, dk := lu.block(j, k), lu.Diag(k)
	if l == nil {
		return nil
	}
	u := dense.GetMatrixUninitElem(l.Cols, l.Rows, lu.Elem)
	for r := 0; r < u.Rows; r++ { // down column r of L: contiguous reads
		for c := 0; c < u.Cols; c++ {
			if lu.Elem == dense.Complex {
				u.ZSet(r, c, dk.ZAt(r, r)*l.ZAt(c, r))
			} else {
				u.Set(r, c, dk.At(r, r)*l.At(c, r))
			}
		}
	}
	return u
}

// Factorize computes the block LU factorization of a (which must already be
// permuted to the ordering the block pattern was computed for).
func Factorize(a *sparse.CSC, bp *etree.BlockPattern) (*LU, error) {
	return factorize(a, bp, dense.Real, 0)
}

// FactorizeShifted computes the block LU factorization of A − zI over the
// same block pattern as the real matrix: the complex shift only touches
// the diagonal, so the symbolic analysis (and every engine template built
// on it) is shared with the real problem. The factor blocks are complex
// (interleaved storage), and the numeric loop is exactly the loop
// Factorize runs — the dense kernels dispatch on the element type.
func FactorizeShifted(a *sparse.CSC, z complex128, bp *etree.BlockPattern) (*LU, error) {
	return factorize(a, bp, dense.Complex, z)
}

func factorize(a *sparse.CSC, bp *etree.BlockPattern, elem dense.Elem, z complex128) (*LU, error) {
	s, err := NewScatter(a, ordering.Identity(a.N), bp)
	if err != nil {
		return nil, err
	}
	lu := New(bp, elem)
	return lu, lu.Refactorize(a, 0, s, z)
}

// Refactorize overwrites lu with the factorization of A + σI − zI, in lu's
// element type (a real LU takes a real z), bit for bit what Factorize or
// FactorizeShifted returns for the CSC a.ShiftDiagonal(σ) makes: σ is added
// to each diagonal value before z is subtracted, the two roundings a shifted
// copy of the values would take. The values' symmetry is read first, exactly —
// a(i,j) == a(j,i) — and decides how much is assembled, eliminated and
// stored. s must be the Scatter of a's pattern on lu's block pattern, and
// nothing may still be reading the previous factorization. After an error lu
// holds none, and can be refactorized again.
func (lu *LU) Refactorize(a *sparse.CSC, sigma float64, s *Scatter, z complex128) error {
	if s.bp != lu.BP || len(s.off) != a.NNZ() {
		return fmt.Errorf("factor: scatter map of another pattern (%d entries, the matrix has %d)", len(s.off), a.NNZ())
	}
	lu.Symmetric = s.symmetric(a.Val)
	lu.reset()
	lu.scatter(a.Val, sigma, s, z)
	return lu.eliminate()
}

// scatter writes A + σI − zI into the zeroed slab through the map — for
// symmetric values only the entries landing in its lower half — then adds σ
// and subtracts z on the diagonal.
func (lu *LU) scatter(val []float64, sigma float64, s *Scatter, z complex128) {
	if lu.Elem == dense.Real && imag(z) != 0 {
		panic(fmt.Sprintf("factor: complex shift %v on a real LU", z))
	}
	ew, end := lu.Elem.Width(), lu.BP.FactorSize(!lu.Symmetric)
	for p, o := range s.off {
		if int(o) < end {
			lu.slab[int(o)*ew] = val[p]
		}
	}
	for _, o := range s.diag {
		d := lu.slab[int(o)*ew:]
		d[0] += sigma
		d[0] += -real(z)
		if ew == 2 {
			d[1] += -imag(z)
		}
	}
}

// eliminate runs the right-looking numeric loop over the assembled slab. The
// Schur update of supernode K is A'_{x,y} −= L_x·W_y over K's block rows,
// W_y being U_{K,y}: for general values the stored block, solved like L_y,
// and every x; for symmetric values D_K·L_yᵀ in a scratch buffer, and x ≥ y
// only, the lower triangle being all that is kept.
func (lu *LU) eliminate() error {
	bp, nb := lu.BP, lu.BP.NNZBlocks()
	for k, rows := range bp.RowsOf {
		first, _ := bp.Slot(k, k) // the ids of K's blocks run on from its diagonal's
		dk := &lu.blocks[first]
		if err := dense.LU(dk); err != nil {
			return fmt.Errorf("factor: supernode %d: %w", k, err)
		}
		for p := 1; p < len(rows); p++ {
			dense.Trsm(dense.Right, dense.Upper, dense.NoTrans, dense.NonUnit, dk, &lu.blocks[first+p])
			if !lu.Symmetric {
				dense.Trsm(dense.Left, dense.Lower, dense.NoTrans, dense.Unit, dk, &lu.blocks[nb+first+p])
			}
		}
		// Closure guarantees the target blocks exist.
		for y := 1; y < len(rows); y++ {
			x, wy := 1, (*dense.Matrix)(nil)
			if lu.Symmetric {
				x, wy = y, lu.UCopy(k, rows[y])
			} else {
				wy = &lu.blocks[nb+first+y]
			}
			for ; x < len(rows); x++ {
				dense.Gemm(dense.NoTrans, dense.NoTrans, -1, &lu.blocks[first+x], wy, 1, lu.block(rows[x], rows[y]))
			}
			if lu.Symmetric {
				dense.PutMatrix(wy)
			}
		}
	}
	return nil
}

// LogAbsDet returns log|det A| = Σ log|U_kk,ii| over all diagonal factor
// entries — the selected-inversion byproduct PEXSI uses for chemical
// potential bisection.
func (lu *LU) LogAbsDet() float64 {
	if lu.Elem == dense.Complex {
		return real(lu.LogDet()) // Re log z = log|z|
	}
	var s float64
	for k := range lu.BP.RowsOf {
		dk := lu.Diag(k)
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
	for k := range lu.BP.RowsOf {
		dk := lu.Diag(k)
		for i := 0; i < dk.Rows; i++ {
			s += cmplx.Log(dk.ZAt(i, i))
		}
	}
	return s
}

// DiagInverseTo writes (A_KK)⁻¹ into inv, of the supernode's square shape and
// element type (an arena matrix serves): L_KK⁻ᵀ·D_K⁻¹·L_KK⁻¹ for symmetric
// values (dense.InvertLDL, reading nothing above the diagonal), else U_KK⁻¹·L_KK⁻¹.
func (lu *LU) DiagInverseTo(k int, inv *dense.Matrix) {
	dk := lu.Diag(k)
	if inv.Rows != dk.Rows || inv.Cols != dk.Rows {
		panic(fmt.Sprintf("factor: DiagInverseTo target %dx%d, want %dx%d", inv.Rows, inv.Cols, dk.Rows, dk.Rows))
	}
	if lu.Symmetric {
		copy(inv.Data, dk.Data)
		dense.InvertLDL(inv)
		return
	}
	inv.Zero()
	for i, ew := 0, dk.Width(); i < dk.Rows; i++ {
		inv.Data[(i+i*dk.Rows)*ew] = 1
	}
	dense.Trsm(dense.Left, dense.Lower, dense.NoTrans, dense.Unit, dk, inv)
	dense.Trsm(dense.Left, dense.Upper, dense.NoTrans, dense.NonUnit, dk, inv)
}
