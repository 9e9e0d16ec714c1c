// Package sparse provides compressed sparse column (CSC) matrices, pattern
// utilities, and the synthetic matrix generators used as stand-ins for the
// paper's test matrices (audikw_1, DG_PNF14000, ...).
//
// All matrices in this repository are structurally symmetric; the selected
// inversion pipeline additionally assumes symmetric values, which every
// generator in this package guarantees.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"pselinv/internal/dense"
)

// CSC is a sparse matrix in compressed sparse column form with sorted row
// indices within each column.
type CSC struct {
	N      int       // matrix dimension (square)
	ColPtr []int     // len N+1
	RowIdx []int     // len nnz, sorted within each column
	Val    []float64 // len nnz
}

// NNZ returns the number of stored entries.
func (a *CSC) NNZ() int { return len(a.RowIdx) }

// Triplet is a single (row, col, value) entry used during assembly.
type Triplet struct {
	Row, Col int
	Val      float64
}

// FromTriplets assembles an n×n CSC matrix from triplets, summing
// duplicates in input order. Panics on out-of-range indices. Two stable
// counting passes — by row into an index scratch, then by column into the
// result — leave every column row-sorted with duplicates adjacent; ts is
// not modified.
func FromTriplets(n int, ts []Triplet) *CSC {
	rowPtr := make([]int, n+1)
	colPtr := make([]int, n+1)
	for _, t := range ts {
		if t.Row < 0 || t.Row >= n || t.Col < 0 || t.Col >= n {
			panic(fmt.Sprintf("sparse: triplet (%d,%d) out of range n=%d", t.Row, t.Col, n))
		}
		rowPtr[t.Row+1]++
		colPtr[t.Col+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
		colPtr[i+1] += colPtr[i]
	}
	byRow := make([]int, len(ts))
	for k, t := range ts {
		byRow[rowPtr[t.Row]] = k
		rowPtr[t.Row]++
	}
	// colPtr[j] is column j's write cursor during the scatter and ends at
	// column j's end; the compaction below rebuilds the starts.
	rowIdx := make([]int, len(ts))
	val := make([]float64, len(ts))
	for _, k := range byRow {
		t := ts[k]
		p := colPtr[t.Col]
		rowIdx[p], val[p] = t.Row, t.Val
		colPtr[t.Col] = p + 1
	}
	w, lo := 0, 0
	for j := 0; j < n; j++ {
		hi := colPtr[j]
		colPtr[j] = w
		for p := lo; p < hi; p++ {
			if p > lo && rowIdx[p] == rowIdx[w-1] {
				val[w-1] += val[p]
				continue
			}
			rowIdx[w], val[w] = rowIdx[p], val[p]
			w++
		}
		lo = hi
	}
	colPtr[n] = w
	return &CSC{N: n, ColPtr: colPtr, RowIdx: rowIdx[:w], Val: val[:w]}
}

// At returns entry (i, j), 0 when not stored. O(log column nnz).
func (a *CSC) At(i, j int) float64 {
	if k := a.pos(i, j); k >= 0 {
		return a.Val[k]
	}
	return 0
}

// pos returns the storage position of entry (i, j), or -1 when it is
// structurally absent.
func (a *CSC) pos(i, j int) int {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	if k := lo + sort.SearchInts(a.RowIdx[lo:hi], i); k < hi && a.RowIdx[k] == i {
		return k
	}
	return -1
}

// mustDiag is pos(j, j) for callers whose pattern must hold the diagonal.
func (a *CSC) mustDiag(j int) int {
	k := a.pos(j, j)
	if k < 0 {
		panic(fmt.Sprintf("sparse: missing diagonal at column %d", j))
	}
	return k
}

// ToDense expands the matrix into a dense.Matrix (small matrices only).
func (a *CSC) ToDense() *dense.Matrix {
	d := dense.NewMatrix(a.N, a.N)
	for j := 0; j < a.N; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			d.Set(a.RowIdx[k], j, a.Val[k])
		}
	}
	return d
}

// IsStructurallySymmetric reports whether the pattern of a equals the
// pattern of aᵀ.
func (a *CSC) IsStructurallySymmetric() bool { return a.mirrored(false, 0, nil) }

// IsSymmetric reports whether the pattern is symmetric and the values are
// symmetric within tol.
func (a *CSC) IsSymmetric(tol float64) bool { return a.mirrored(true, tol, nil) }

// Mirrors returns, for each stored entry (i, j), the position at which
// (j, i) is stored, or nil if the pattern is not structurally symmetric.
func (a *CSC) Mirrors() []int32 {
	mirror := make([]int32, a.NNZ())
	if !a.mirrored(false, 0, mirror) {
		return nil
	}
	return mirror
}

// mirrored matches every entry (i, j) with its mirror (j, i) in one sweep
// over the columns. next[i] is the first entry of column i not yet claimed
// as a mirror; columns are visited in ascending j and rows are sorted, so
// column i's entries are claimed in storage order and the mirror of (i, j),
// if stored, is exactly the entry next[i] points at. Each of the nnz
// entries claims one distinct entry, so when no claim fails none is left
// over. A non-nil mirror records each entry's claim.
func (a *CSC) mirrored(values bool, tol float64, mirror []int32) bool {
	next := append([]int(nil), a.ColPtr[:a.N]...)
	for j := 0; j < a.N; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			p := next[i]
			if p == a.ColPtr[i+1] || a.RowIdx[p] != j {
				return false
			}
			if values && math.Abs(a.Val[k]-a.Val[p]) > tol {
				return false
			}
			if mirror != nil {
				mirror[k] = int32(p)
			}
			next[i] = p + 1
		}
	}
	return true
}

// Permute returns P A Pᵀ where perm maps old index -> new index, i.e. entry
// (i, j) of a moves to (perm[i], perm[j]). Two bucket passes: the entries
// are first grouped by new row, then dealt out to their new columns in
// ascending row order, which leaves every column sorted. A pattern without
// values (nil Val) gives one without.
func (a *CSC) Permute(perm []int) *CSC {
	if len(perm) != a.N {
		panic("sparse: permutation length mismatch")
	}
	n, nnz := a.N, a.NNZ()
	rowPtr := make([]int, n+1)
	for _, i := range a.RowIdx {
		rowPtr[perm[i]+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	// A bucket entry is the new column, followed with values by the value's
	// bits: one array, so an entry is one scattered write.
	b, stride := &CSC{N: n, ColPtr: make([]int, n+1), RowIdx: make([]int, nnz)}, 1
	if a.Val != nil {
		b.Val, stride = make([]float64, nnz), 2
	}
	byRow := make([]uint64, stride*nnz)
	for j := 0; j < n; j++ {
		c := perm[j]
		b.ColPtr[c+1] = a.ColPtr[j+1] - a.ColPtr[j]
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			r := perm[a.RowIdx[k]]
			byRow[stride*rowPtr[r]] = uint64(c)
			if b.Val != nil {
				byRow[2*rowPtr[r]+1] = math.Float64bits(a.Val[k])
			}
			rowPtr[r]++
		}
	}
	for j := 0; j < n; j++ {
		b.ColPtr[j+1] += b.ColPtr[j]
	}
	// rowPtr[r] now marks the end of row r's bucket, and ColPtr[c] is
	// column c's write cursor until the shift below restores the starts.
	for r, p := 0, 0; r < n; r++ {
		for ; p < rowPtr[r]; p++ {
			c := byRow[stride*p]
			q := b.ColPtr[c]
			b.RowIdx[q], b.ColPtr[c] = r, q+1
			if b.Val != nil {
				b.Val[q] = math.Float64frombits(byRow[2*p+1])
			}
		}
	}
	copy(b.ColPtr[1:], b.ColPtr[:n])
	b.ColPtr[0] = 0
	return b
}

// MakeDiagonallyDominant adds to each diagonal entry so that every row is
// strictly diagonally dominant (guaranteeing unpivoted LU stability). The
// pattern must already include the diagonal.
func (a *CSC) MakeDiagonallyDominant(margin float64) {
	rowSum := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			if i != j {
				rowSum[i] += math.Abs(a.Val[k])
			}
		}
	}
	for j := 0; j < a.N; j++ {
		a.Val[a.mustDiag(j)] = rowSum[j] + margin
	}
}

// MakeDoublyDominant adds to each diagonal entry so that it strictly
// dominates both its row and its column off-diagonal absolute sums —
// sufficient for unpivoted LU stability of matrices with asymmetric
// values. The pattern must include the diagonal.
func (a *CSC) MakeDoublyDominant(margin float64) {
	rowSum := make([]float64, a.N)
	colSum := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			if i != j {
				rowSum[i] += math.Abs(a.Val[k])
				colSum[j] += math.Abs(a.Val[k])
			}
		}
	}
	for j := 0; j < a.N; j++ {
		a.Val[a.mustDiag(j)] = math.Max(rowSum[j], colSum[j]) + margin
	}
}

// Density returns nnz / n².
func (a *CSC) Density() float64 {
	return float64(a.NNZ()) / (float64(a.N) * float64(a.N))
}

// String summarizes the matrix.
func (a *CSC) String() string {
	return fmt.Sprintf("CSC{n=%d nnz=%d density=%.3g%%}", a.N, a.NNZ(), 100*a.Density())
}
