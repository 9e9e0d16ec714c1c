// Package dense provides the small dense linear-algebra kernels used by the
// supernodal factorization and selected-inversion code: column-major
// matrices, GEMM with transpose options, triangular solves (TRSM),
// unpivoted and partially pivoted LU, triangular and general inversion.
//
// Matrices are stored column-major to match the block layout used by the
// supernodal storage in internal/blockmat: entry (i, j) of an m×n matrix
// lives at Data[i+j*m].
package dense

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"strings"
)

// Matrix is a dense column-major matrix. Elem selects the element type:
// Real matrices hold one float64 per entry (len(Data) == Rows*Cols);
// Complex matrices interleave (re, im) pairs in the same buffer
// (len(Data) == 2*Rows*Cols). The zero value of Elem is Real, so plain
// struct literals keep their historical meaning.
type Matrix struct {
	Rows, Cols int
	Elem       Elem
	Data       []float64 // len == Rows*Cols*Elem.Width(), column-major
}

// NewMatrix returns a zero-initialized Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix { return NewMatrixElem(rows, cols, Real) }

// At returns entry (i, j).
func (a *Matrix) At(i, j int) float64 { return a.Data[i+j*a.Rows] }

// Set assigns entry (i, j).
func (a *Matrix) Set(i, j int, v float64) { a.Data[i+j*a.Rows] = v }

// Add adds v to entry (i, j).
func (a *Matrix) Add(i, j int, v float64) { a.Data[i+j*a.Rows] += v }

// Clone returns a deep copy of a.
func (a *Matrix) Clone() *Matrix {
	return &Matrix{Rows: a.Rows, Cols: a.Cols, Elem: a.Elem, Data: slices.Clone(a.Data)}
}

// Zero sets every entry to 0.
func (a *Matrix) Zero() { clear(a.Data) }

// TransposeInto writes aᵀ into t, which must be a.Cols×a.Rows with the
// same element type; pair it with GetMatrixUninitElem to transpose without
// allocating. Complex transposition moves the (re, im) pairs whole — no
// conjugation.
func (a *Matrix) TransposeInto(t *Matrix) {
	if t.Rows != a.Cols || t.Cols != a.Rows {
		panic("dense: shape mismatch in TransposeInto")
	}
	checkElem("TransposeInto", a, t)
	if a.Elem == Complex {
		for j := 0; j < a.Cols; j++ {
			col := a.Data[2*j*a.Rows : 2*(j+1)*a.Rows]
			for i := 0; i < a.Rows; i++ {
				p := 2 * (j + i*t.Rows)
				t.Data[p] = col[2*i]
				t.Data[p+1] = col[2*i+1]
			}
		}
		return
	}
	for j := 0; j < a.Cols; j++ {
		col := a.Data[j*a.Rows : (j+1)*a.Rows]
		for i, v := range col {
			t.Data[j+i*t.Rows] = v
		}
	}
}

// MaxAbsDiff returns max |a_ij - b_ij|; panics on shape mismatch.
func (a *Matrix) MaxAbsDiff(b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("dense: shape mismatch in MaxAbsDiff")
	}
	d := 0.0
	for i := range a.Data {
		if v := math.Abs(a.Data[i] - b.Data[i]); v > d {
			d = v
		}
	}
	return d
}

// Scale multiplies every entry by s in place.
func (a *Matrix) Scale(s float64) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// AddScaled performs a += s*b in place; panics on shape mismatch.
func (a *Matrix) AddScaled(s float64, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("dense: shape mismatch in AddScaled")
	}
	for i := range a.Data {
		a.Data[i] += s * b.Data[i]
	}
}

// Trans selects an operand orientation for Gemm.
type Trans bool

const (
	// NoTrans uses the operand as stored.
	NoTrans Trans = false
	// DoTrans uses the transpose of the operand.
	DoTrans Trans = true
)

// Side selects which side a triangular operand appears on in Trsm.
type Side int

const (
	// Left solves op(T)*X = B.
	Left Side = iota
	// Right solves X*op(T) = B.
	Right
)

// UpLo selects the triangle of a triangular operand.
type UpLo int

const (
	// Lower means T is lower triangular.
	Lower UpLo = iota
	// Upper means T is upper triangular.
	Upper
)

// Diag tells Trsm whether the triangular matrix has an implicit unit diagonal.
type Diag int

const (
	// NonUnit uses the stored diagonal.
	NonUnit Diag = iota
	// Unit assumes a unit diagonal regardless of stored values.
	Unit
)

// LU factors a in place without pivoting: on return the strict lower
// triangle holds L (unit diagonal implicit) and the upper triangle holds U.
// Returns an error when a zero (or denormal-tiny) or non-finite pivot is met:
// an uploaded matrix need not be diagonally dominant as the generators' are.
func LU(a *Matrix) error {
	if a.Cols != a.Rows {
		panic("dense: LU of non-square matrix")
	}
	if a.Elem == Complex {
		return lu(complexView(a.Data), a.Rows, cmplx.Abs, nil)
	}
	return lu(a.Data, a.Rows, math.Abs, nil)
}

// badPivot reports whether a pivot of the given modulus cannot be divided
// by: below the tiny threshold, infinite, or NaN (which compares false).
func badPivot(abs float64) bool { return !(abs >= 1e-300) || math.IsInf(abs, 0) }

// LUPartialPivot factors the real matrix a in place with partial (row)
// pivoting and returns the pivot permutation: row i of the factored matrix
// corresponds to row perm[i] of the input. Returns an error on singularity.
func LUPartialPivot(a *Matrix) ([]int, error) {
	if a.Cols != a.Rows {
		panic("dense: LU of non-square matrix")
	}
	perm := make([]int, a.Rows)
	for i := range perm {
		perm[i] = i
	}
	if err := lu(a.Data, a.Rows, math.Abs, perm); err != nil {
		return nil, err
	}
	return perm, nil
}

// lu is LU on the column-major elements of an order-n matrix; with perm it
// first swaps the largest remaining entry of each column into the pivot
// position, recording the row exchanges in perm.
func lu[T float64 | complex128](a []T, n int, abs func(T) float64, perm []int) error {
	for k := 0; k < n; k++ {
		if perm != nil {
			best, bi := abs(a[k+k*n]), k
			for i := k + 1; i < n; i++ {
				if v := abs(a[i+k*n]); v > best {
					best, bi = v, i
				}
			}
			perm[k], perm[bi] = perm[bi], perm[k]
			for j := 0; j < n; j++ {
				a[k+j*n], a[bi+j*n] = a[bi+j*n], a[k+j*n]
			}
		}
		p := a[k+k*n]
		if badPivot(abs(p)) {
			return fmt.Errorf("dense: zero or non-finite pivot %v at %d", p, k)
		}
		lcol := a[k*n : (k+1)*n]
		for i := k + 1; i < n; i++ {
			lcol[i] /= p
		}
		for j := k + 1; j < n; j++ {
			akj := a[k+j*n]
			if akj == 0 {
				continue
			}
			col := a[j*n : (j+1)*n]
			for i := k + 1; i < n; i++ {
				col[i] -= lcol[i] * akj
			}
		}
	}
	return nil
}

// Inverse returns a⁻¹ computed via partially pivoted LU. The input is not
// modified. It is the tests' whole-matrix oracle — O(n³) scalar loops, the
// only Trsm caller above supernode-block order — not a production path.
func Inverse(a *Matrix) (*Matrix, error) {
	n, f := a.Rows, a.Clone()
	perm, err := LUPartialPivot(f) // which refuses a non-square matrix
	if err != nil {
		return nil, err
	}
	// Solve A X = I, i.e. L U X = P I: row i of P·I is e_perm[i].
	x := NewMatrix(n, n)
	for i, p := range perm {
		x.Set(i, p, 1)
	}
	Trsm(Left, Lower, NoTrans, Unit, f, x)
	Trsm(Left, Upper, NoTrans, NonUnit, f, x)
	return x, nil
}

// IsSymmetric reports whether a equals its plain transpose within tol, word
// by word.
func (a *Matrix) IsSymmetric(tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	n, ew := a.Rows, a.Width()
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			for e := 0; e < ew; e++ {
				if math.Abs(a.Data[(i+j*n)*ew+e]-a.Data[(j+i*n)*ew+e]) > tol {
					return false
				}
			}
		}
	}
	return true
}

// String renders the matrix for debugging.
func (a *Matrix) String() string {
	rows := make([]string, a.Rows)
	for i := range rows {
		row := make([]string, a.Cols)
		for j := range row {
			row[j] = fmt.Sprintf("%.4g", a.At(i, j))
		}
		rows[i] = strings.Join(row, " ")
	}
	return fmt.Sprintf("%dx%d[%s]", a.Rows, a.Cols, strings.Join(rows, "; "))
}

// GemmFlops returns the floating-point operation count of a GEMM with the
// given inner dimensions, used by the timing simulator cost model.
func GemmFlops(m, n, k int) int64 { return 2 * int64(m) * int64(n) * int64(k) }

// TrsmFlops returns the flop count of a triangular solve with an n×n
// triangle and m right-hand sides.
func TrsmFlops(n, m int) int64 { return int64(n) * int64(n) * int64(m) }
