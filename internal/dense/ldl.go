package dense

import (
	"fmt"
	"unsafe"
)

// A diagonal block of symmetric values is L·D·Lᵀ (plain transpose): LU's
// strict lower triangle and diagonal. Those, and symmetric matrices, travel
// packed: the lower triangle column by column, PackedLen(n) entries.

// PackedLen returns the entry count n(n+1)/2 of an order-n packed triangle.
func PackedLen(n int) int { return n * (n + 1) / 2 }

// PackLower writes the lower triangle of the square matrix a into dst, which
// may be a prefix of a.Data: packing in place.
func PackLower(a *Matrix, dst []float64) {
	n, ew := a.Rows, a.Width()
	checkPacked("PackLower", a, dst)
	for j, p := 0, 0; j < n; j++ {
		p += copy(dst[p:], a.Data[(j+j*n)*ew:(j+1)*n*ew])
	}
}

// UnpackLower writes the packed lower triangle src, which may be a prefix of
// a.Data, into a's lower triangle; MirrorLower then makes a the symmetric
// matrix src holds.
func UnpackLower(src []float64, a *Matrix) {
	n, ew := a.Rows, a.Width()
	checkPacked("UnpackLower", a, src)
	for j := n - 1; j >= 0; j-- { // column j starts at entry j·n − j(j−1)/2
		copy(a.Data[(j+j*n)*ew:(j+1)*n*ew], src[(j*n-j*(j-1)/2)*ew:])
	}
}

// MirrorLower copies the strict lower triangle of the square matrix a onto
// its upper one (plain transpose).
func MirrorLower(a *Matrix) {
	if a.Elem == Complex {
		mirrorLower(complexView(a.Data), a.Rows)
	} else {
		mirrorLower(a.Data, a.Rows)
	}
}

func checkPacked(op string, a *Matrix, packed []float64) {
	if a.Cols != a.Rows || len(packed) != PackedLen(a.Rows)*a.Width() {
		panic(fmt.Sprintf("dense: %s of %d words and a %dx%d %s matrix", op, len(packed), a.Rows, a.Cols, a.Elem))
	}
}

// InvertLDL overwrites the square matrix a, whose strict lower triangle holds
// a unit lower L and whose diagonal holds D, with (L·D·Lᵀ)⁻¹ = L⁻ᵀ·D⁻¹·L⁻¹ in
// ≈ 2n³/3 flops. It reads nothing above the diagonal.
func InvertLDL(a *Matrix) {
	if a.Cols != a.Rows {
		panic("dense: InvertLDL of a non-square matrix")
	}
	if a.Elem == Complex {
		invertLDL(complexView(a.Data), a.Rows)
	} else {
		invertLDL(a.Data, a.Rows)
	}
}

// complexView reinterprets interleaved (re, im) storage as the complex128
// elements it holds: Go lays a complex128 out as exactly that pair.
func complexView(d []float64) []complex128 {
	return unsafe.Slice((*complex128)(unsafe.Pointer(unsafe.SliceData(d))), len(d)/2)
}

// invertLDL is InvertLDL on a column-major order-n matrix. D⁻¹ is kept in the
// last column — above the diagonal a scratch until the final mirror — so that
// each sweep below reads contiguous columns.
func invertLDL[T float64 | complex128](a []T, n int) {
	e := a[max(n-1, 0)*n : n*n]
	for m := range e {
		e[m] = 1 / a[m+m*n]
	}
	// X = L⁻¹, right to left: X_{>j,j} = −X_{>j,>j}·L_{>j,j}, the product
	// accumulated in place as axpys with the columns of X already formed.
	for j := n - 2; j >= 0; j-- {
		x := a[j*n+j+1 : (j+1)*n]
		for l := n - 2; l > j; l-- {
			if v := x[l-j-1]; v != 0 {
				xl := a[l*n+l+1 : (l+1)*n]
				xs := x[l-j:][:len(xl)]
				for i, w := range xl {
					xs[i] += w * v
				}
			}
		}
		for i := range x {
			x[i] = -x[i]
		}
	}
	// The lower triangle of Xᵀ·D⁻¹·X, left to right. Column j of X becomes
	// v = D⁻¹·X_{·,j}, then entry i > j of the result, Σ_{m≥i} X_{m,i}·v_m,
	// overwrites v_i, the last entry of v no later row reads.
	for j := 0; j < n; j++ {
		x := a[j*n+j+1 : (j+1)*n]
		es, d := e[j+1:][:len(x)], e[j]
		for m, v := range x {
			d += v * v * es[m]
			x[m] = v * es[m]
		}
		for i := range x {
			xi := a[(j+1+i)*n+j+2+i : (j+2+i)*n]
			vs, s := x[i+1:][:len(xi)], x[i]
			for m, w := range xi {
				s += w * vs[m]
			}
			x[i] = s
		}
		a[j+j*n] = d
	}
	mirrorLower(a, n)
}

// mirrorLower copies the strict lower triangle onto the upper one.
func mirrorLower[T float64 | complex128](a []T, n int) {
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			a[j+i*n] = a[i+j*n]
		}
	}
}
