package dense

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// ldlFactor returns, for a random well-conditioned A = L·D·Lᵀ of order n, A
// itself and the block a factorization of it leaves: L strictly below the
// diagonal, D on it, NaN above (never to be read).
func ldlFactor(rng *rand.Rand, n int, elem Elem) (a, f *Matrix) {
	l, d := Eye(n), NewMatrixElem(n, n, elem)
	if elem == Complex {
		l = NewMatrixElem(n, n, Complex)
	}
	f = NewMatrixElem(n, n, elem)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := complex(rng.NormFloat64()/float64(n), rng.NormFloat64()/float64(n))
			switch {
			case i == j:
				v = complex(2+rng.Float64(), rng.NormFloat64())
				d.setZ(i, i, v)
				l.setZ(i, i, 1)
			case i > j:
				l.setZ(i, j, v)
			default:
				v = complex(math.NaN(), math.NaN())
			}
			f.setZ(i, j, v)
		}
	}
	ld := NewMatrixElem(n, n, elem)
	Gemm(NoTrans, NoTrans, 1, l, d, 0, ld)
	a = NewMatrixElem(n, n, elem)
	Gemm(NoTrans, DoTrans, 1, ld, l, 0, a)
	return a, f
}

// setZ stores v, or its real part in a real matrix.
func (a *Matrix) setZ(i, j int, v complex128) {
	if a.Elem == Complex {
		a.ZSet(i, j, v)
	} else {
		a.Set(i, j, real(v))
	}
}

// TestInvertLDL: L⁻ᵀ·D⁻¹·L⁻¹ from the lower triangle alone — NaN above the
// diagonal reaches nothing — is A⁻¹ to rounding (A·X = I), exactly symmetric
// under the plain transpose, real and complex, over orders 0…48.
func TestInvertLDL(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, elem := range []Elem{Real, Complex} {
		for _, n := range []int{0, 1, 2, 3, 7, 20, 48} {
			a, x := ldlFactor(rng, n, elem)
			InvertLDL(x)
			if !x.IsSymmetric(0) {
				t.Fatalf("%s n=%d: inverse not exactly symmetric", elem, n)
			}
			ax := NewMatrixElem(n, n, elem)
			Gemm(NoTrans, NoTrans, 1, a, x, 0, ax)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					want := complex(0, 0)
					if i == j {
						want = 1
					}
					got := complex(ax.At(i, j), 0)
					if elem == Complex {
						got = ax.ZAt(i, j)
					}
					if d := cmplx.Abs(got - want); !(d <= 1e-12) {
						t.Fatalf("%s n=%d: (A·X)(%d,%d) = %v", elem, n, i, j, got)
					}
				}
			}
		}
	}
}

// TestPackLowerRoundTrip: the packed format is the lower triangle column by
// column, PackedLen entries of the element type, and unpacking then
// mirroring writes the symmetric matrix it holds.
func TestPackLowerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, elem := range []Elem{Real, Complex} {
		for _, n := range []int{0, 1, 4, 9} {
			label := fmt.Sprintf("%s n=%d", elem, n)
			a := randMat(rng, n, n*elem.Width())
			a.Rows, a.Cols, a.Elem = n, n, elem
			packed := make([]float64, PackedLen(n)*elem.Width())
			PackLower(a, packed)
			b := NewMatrixElem(n, n, elem)
			UnpackLower(packed, b)
			MirrorLower(b)
			for j, p := 0, 0; j < n; j++ {
				for i := 0; i < n; i++ {
					r, c := max(i, j), min(i, j)
					for e := 0; e < elem.Width(); e++ {
						if want := a.Data[(r+c*n)*elem.Width()+e]; b.Data[(i+j*n)*elem.Width()+e] != want {
							t.Fatalf("%s: unpacked (%d,%d) is not a's (%d,%d)", label, i, j, r, c)
						}
					}
					if i >= j {
						for e := 0; e < elem.Width(); e++ {
							if packed[p] != a.Data[(i+j*n)*elem.Width()+e] {
								t.Fatalf("%s: packed word %d is not (%d,%d)", label, p, i, j)
							}
							p++
						}
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PackLower into a buffer of the wrong length did not panic")
		}
	}()
	PackLower(NewMatrix(3, 3), make([]float64, 9))
}
