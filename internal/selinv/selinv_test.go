package selinv

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pselinv/internal/blockmat"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

func analyze(g *sparse.Generated, method ordering.Method, opt etree.Options) *etree.Analysis {
	perm := ordering.Compute(method, g.A, g.Geom)
	return etree.Analyze(g.A.Permute(perm), perm, opt)
}

// factorize builds the factorization under test: the real LU of A, or the
// complex LU of A − zI.
func factorize(t testing.TB, an *etree.Analysis, elem dense.Elem, z complex128) *factor.LU {
	t.Helper()
	var lu *factor.LU
	var err error
	if elem == dense.Complex {
		lu, err = factor.FactorizeShifted(an.A, z, an.BP)
	} else {
		lu, err = factor.Factorize(an.A, an.BP)
	}
	if err != nil {
		t.Fatal(err)
	}
	return lu
}

// denseOracle inverts the analyzed matrix densely with partial pivoting —
// sharing neither the supernodal structure nor, for complex elements, any
// complex kernel with the code under test. Real: dense.Inverse of A.
// Complex: dense.Inverse of the real 2n×2n embedding [[Re, −Im], [Im, Re]]
// of A − zI, whose inverse is the embedding of (A − zI)⁻¹ and whose
// determinant is |det(A − zI)|². It returns the inverse as a lookup and
// log|det|.
func denseOracle(t testing.TB, a *sparse.CSC, elem dense.Elem, z complex128) (inv func(i, j int) complex128, logAbsDet float64) {
	t.Helper()
	n := a.N
	m := a.ToDense()
	if elem == dense.Complex {
		m = dense.NewMatrix(2*n, 2*n)
		for j := 0; j < n; j++ {
			for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
				m.Set(a.RowIdx[k], j, a.Val[k])
				m.Set(n+a.RowIdx[k], n+j, a.Val[k])
			}
			m.Add(j, j, -real(z))
			m.Add(n+j, n+j, -real(z))
			m.Set(j, n+j, imag(z))
			m.Set(n+j, j, -imag(z))
		}
	}
	x, err := dense.Inverse(m)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Clone()
	if _, err := dense.LUPartialPivot(f); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.Rows; i++ {
		logAbsDet += math.Log(math.Abs(f.At(i, i)))
	}
	if elem == dense.Complex {
		return func(i, j int) complex128 { return complex(x.At(i, j), x.At(n+i, j)) }, logAbsDet / 2
	}
	return func(i, j int) complex128 { return complex(x.At(i, j), 0) }, logAbsDet
}

// entry reads one scalar of a block of either element type.
func entry(b *dense.Matrix, r, c int) complex128 {
	if b.Elem == dense.Complex {
		return b.ZAt(r, c)
	}
	return complex(b.At(r, c), 0)
}

// checkAgainstDense verifies every stored block of the selected inverse
// against the dense oracle.
func checkAgainstDense(t testing.TB, an *etree.Analysis, ainv *blockmat.BlockMatrix, want func(i, j int) complex128, tol float64) {
	t.Helper()
	part := an.BP.Part
	ainv.Range(func(bi, bj int, b *dense.Matrix) {
		r0, c0 := part.Start[bi], part.Start[bj]
		for c := 0; c < b.Cols; c++ {
			for r := 0; r < b.Rows; r++ {
				if got, exp := entry(b, r, c), want(r0+r, c0+c); !(cmplx.Abs(got-exp) <= tol) {
					t.Fatalf("A⁻¹ block (%d,%d) entry (%d,%d): got %v want %v",
						bi, bj, r, c, got, exp)
				}
			}
		}
	})
}

var zoo = []func() *sparse.Generated{
	func() *sparse.Generated { return sparse.Banded(10, 1, 1) },
	func() *sparse.Generated { return sparse.Banded(14, 3, 2) },
	func() *sparse.Generated { return sparse.Banded(15, 2, 1) },
	func() *sparse.Generated { return sparse.Grid2D(4, 4, 3) },
	func() *sparse.Generated { return sparse.Grid2D(6, 5, 4) },
	func() *sparse.Generated { return sparse.Grid2D(6, 6, 3) },
	func() *sparse.Generated { return sparse.RandomSym(25, 3, 5) },
	func() *sparse.Generated { return sparse.RandomSym(30, 4, 2) },
	func() *sparse.Generated { return sparse.DG2D(3, 3, 2, 6) },
	func() *sparse.Generated { return sparse.DG2D(3, 3, 3, 5) },
}

var shifts = []complex128{complex(0, 1), complex(2, 3), complex(-1, 0.5), complex(0.5, -2), complex(1, 2)}

// TestSelInvReference drives the one reference over both element types,
// symmetric and asymmetric values and the matrix zoo, and checks on every
// case: each stored block against the dense oracle, the scalar entry
// lookup on the diagonal, log|det| against the pivoted dense LU, that every
// block of A's pattern is computed and has its mirror, and — for symmetric
// values, where (A − zI)⁻¹ is symmetric too — that the mirrors are
// transposes of each other.
func TestSelInvReference(t *testing.T) {
	for _, elem := range []dense.Elem{dense.Real, dense.Complex} {
		for _, symmetric := range []bool{true, false} {
			for gi, gen := range zoo {
				g := gen()
				if !symmetric {
					g = sparse.Asymmetrize(g, int64(gi)+20, 0.8)
				}
				z := shifts[gi%len(shifts)]
				t.Run(fmt.Sprintf("%v/symmetric=%v/%s", elem, symmetric, g.Name), func(t *testing.T) {
					an := analyze(g, ordering.NestedDissection, etree.Options{Relax: gi % 3, MaxWidth: 6})
					lu := factorize(t, an, elem, z)
					ainv := SelInv(lu)
					want, wantLogAbsDet := denseOracle(t, an.A, elem, z)
					checkAgainstDense(t, an, ainv, want, 1e-8)

					part := an.BP.Part
					for i := 0; i < an.A.N; i++ {
						if _, ok := ainv.Get(part.SnodeOf[i], part.SnodeOf[i]); !ok {
							t.Fatalf("diagonal entry %d missing", i)
						}
						got := complex(ainv.At(i, i), 0)
						if elem == dense.Complex {
							got = ainv.ZAt(i, i)
						}
						if cmplx.Abs(got-want(i, i)) > 1e-9 {
							t.Fatalf("entry %d: %v want %v", i, got, want(i, i))
						}
					}

					// The imaginary part of the complex log det is
					// branch-dependent through the pivot product; the real
					// part is log|det| for both element types.
					gotLogAbsDet := lu.LogAbsDet()
					if elem == dense.Complex {
						if d := real(lu.LogDet()) - gotLogAbsDet; math.Abs(d) > 1e-12 {
							t.Fatalf("Re(LogDet) and LogAbsDet differ by %g", d)
						}
					}
					if d := gotLogAbsDet - wantLogAbsDet; math.Abs(d) > 1e-8 {
						t.Fatalf("log|det| = %g, want %g", gotLogAbsDet, wantLogAbsDet)
					}

					// Every nonzero block of A has its A⁻¹ block (Eq. 1).
					a := an.A
					for j := 0; j < a.N; j++ {
						for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
							if _, ok := ainv.Get(part.SnodeOf[a.RowIdx[p]], part.SnodeOf[j]); !ok {
								t.Fatalf("selected block (%d,%d) missing from A⁻¹", part.SnodeOf[a.RowIdx[p]], part.SnodeOf[j])
							}
						}
					}
					ainv.Range(func(bi, bj int, b *dense.Matrix) {
						mirror, ok := ainv.Get(bj, bi)
						if !ok {
							t.Fatalf("mirror of block (%d,%d) missing", bi, bj)
						}
						if b.Elem != elem {
							t.Fatalf("block (%d,%d) is %v, want %v", bi, bj, b.Elem, elem)
						}
						if !symmetric {
							return
						}
						for c := 0; c < b.Cols; c++ {
							for r := 0; r < b.Rows; r++ {
								if cmplx.Abs(entry(b, r, c)-entry(mirror, c, r)) > 1e-9 {
									t.Fatalf("inverse not symmetric at block (%d,%d)", bi, bj)
								}
							}
						}
					})
				})
			}
		}
	}
}

// realOracle is denseOracle for a real analysis.
func realOracle(t testing.TB, an *etree.Analysis) func(i, j int) complex128 {
	t.Helper()
	want, _ := denseOracle(t, an.A, dense.Real, 0)
	return want
}

func TestSelInvAllOrderings(t *testing.T) {
	g := sparse.Grid2D(5, 5, 7)
	for _, m := range []ordering.Method{
		ordering.Natural, ordering.RCM, ordering.NestedDissection, ordering.MinimumDegree,
	} {
		an := analyze(g, m, etree.Options{})
		checkAgainstDense(t, an, SelInv(factorize(t, an, dense.Real, 0)), realOracle(t, an), 1e-8)
	}
}

func TestSelInvRelaxedSupernodes(t *testing.T) {
	g := sparse.Grid2D(6, 6, 8)
	for _, opt := range []etree.Options{
		{Relax: 2}, {MaxWidth: 2}, {Relax: 3, MaxWidth: 6},
	} {
		an := analyze(g, ordering.NestedDissection, opt)
		checkAgainstDense(t, an, SelInv(factorize(t, an, dense.Real, 0)), realOracle(t, an), 1e-8)
	}
}

func TestSelInvGrid3D(t *testing.T) {
	an := analyze(sparse.Grid3D(3, 3, 3, 9), ordering.NestedDissection, etree.Options{Relax: 2})
	checkAgainstDense(t, an, SelInv(factorize(t, an, dense.Real, 0)), realOracle(t, an), 1e-8)
}

func TestSelInvScalarSupernodes(t *testing.T) {
	// Force all-singleton supernodes: the block algorithm degenerates to
	// the scalar algorithm and must still be exact.
	an := analyze(sparse.Banded(12, 2, 10), ordering.Natural, etree.Options{MaxWidth: 1})
	checkAgainstDense(t, an, SelInv(factorize(t, an, dense.Real, 0)), realOracle(t, an), 1e-8)
}

// transpose returns bᵀ as a new matrix.
func transpose(b *dense.Matrix) *dense.Matrix {
	t := dense.NewMatrixElem(b.Cols, b.Rows, b.Elem)
	b.TransposeInto(t)
	return t
}

// nudged returns a copy of a with one strictly-lower entry moved by one ulp:
// the same matrix to rounding, but not exactly symmetric, so the factorization
// takes the general loop and the reference its two-sided form.
func nudged(a *sparse.CSC) *sparse.CSC {
	b := &sparse.CSC{N: a.N, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: slices.Clone(a.Val)}
	for j := 0; j < b.N; j++ {
		for p := b.ColPtr[j]; p < b.ColPtr[j+1]; p++ {
			if b.RowIdx[p] > j {
				b.Val[p] = math.Nextafter(b.Val[p], math.Inf(1))
				return b
			}
		}
	}
	panic("nudged: diagonal matrix")
}

func TestSymmetryUhatEqualsLhatTransposed(t *testing.T) {
	// For symmetric-valued A, Û_{K,I} == L̂_{I,K}ᵀ (§II-B) — the identity the
	// distributed symmetric code path and the lower-only factorization depend
	// on — checked where Û is still computed on its own: the general loop, on
	// values an ulp from symmetric.
	for _, g := range []*sparse.Generated{
		sparse.Grid2D(6, 6, 11), sparse.RandomSym(40, 4, 12),
	} {
		an := analyze(g, ordering.NestedDissection, etree.Options{Relax: 2})
		an.A = nudged(an.A)
		lu := factorize(t, an, dense.Real, 0)
		if lu.Symmetric {
			t.Fatalf("%s: nudged values still took the symmetric loop", g.Name)
		}
		hat, nl := pass1(lu), 0
		hat.Range(func(i, k int, lb *dense.Matrix) {
			if i < k { // a Û block, checked from its L̂ mirror
				return
			}
			nl++
			if d := hat.MustGet(k, i).MaxAbsDiff(transpose(lb)); d > 1e-9 {
				t.Errorf("%s: |Û - L̂ᵀ| = %g at block (%d,%d)", g.Name, d, i, k)
			}
		})
		if nl == 0 {
			t.Fatalf("%s: pass 1 produced no blocks", g.Name)
		}
	}
}

// TestBadlyScaledAsymmetricTakesGeneralPath: value symmetry is exact, not a
// tolerance — an asymmetric matrix whose entries are all ≈1e-15 (below the
// absolute 1e-14 the rule once allowed) is factorized with both triangles and
// inverted correctly; the symmetric path would discard its upper values.
func TestBadlyScaledAsymmetricTakesGeneralPath(t *testing.T) {
	g := sparse.RandomAsym(40, 4, 3)
	for p := range g.A.Val {
		g.A.Val[p] *= 1e-15
	}
	if g.A.IsSymmetric(0) {
		t.Fatal("the scaled matrix is still asymmetric")
	}
	an := analyze(g, ordering.NestedDissection, etree.Options{Relax: 2, MaxWidth: 6})
	lu := factorize(t, an, dense.Real, 0)
	if lu.Symmetric {
		t.Fatal("asymmetric values of magnitude 1e-15 recorded as symmetric")
	}
	want, err := dense.Inverse(an.A.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstDense(t, an, SelInv(lu), func(i, j int) complex128 { return complex(want.At(i, j), 0) }, 1e-9*want.MaxAbsDiff(dense.NewMatrix(want.Rows, want.Cols)))
}

// TestSelInvTwoStorageForms: over the zoo and both element types, the
// lower-only factorization of exactly symmetric values under the reference's
// one-sided form, and the general factorization of the same values nudged by
// an ulp under its two-sided form, give the same selected inverse and
// log-determinants within 1e-9.
func TestSelInvTwoStorageForms(t *testing.T) {
	for _, elem := range []dense.Elem{dense.Real, dense.Complex} {
		for gi, gen := range zoo {
			g := gen()
			an := analyze(g, ordering.NestedDissection, etree.Options{Relax: gi % 3, MaxWidth: 6})
			z := shifts[gi%len(shifts)]
			lo := factorize(t, an, elem, z)
			gan := *an
			gan.A = nudged(an.A)
			general := factorize(t, &gan, elem, z)
			if !lo.Symmetric || general.Symmetric {
				t.Fatalf("%s: Symmetric = %v and %v, want true and false", g.Name, lo.Symmetric, general.Symmetric)
			}
			a, b := SelInv(lo), SelInv(general)
			na, nb := 0, 0
			b.Range(func(int, int, *dense.Matrix) { nb++ })
			a.Range(func(i, j int, ab *dense.Matrix) {
				na++
				if d := ab.MaxAbsDiff(b.MustGet(i, j)); d > 1e-9 {
					t.Errorf("%s %v: block (%d,%d) differs by %g between the storage forms", g.Name, elem, i, j, d)
				}
			})
			if na != nb {
				t.Fatalf("%s %v: %d blocks vs %d", g.Name, elem, na, nb)
			}
			if d := math.Abs(lo.LogAbsDet() - general.LogAbsDet()); d > 1e-9 {
				t.Errorf("%s %v: LogAbsDet differs by %g", g.Name, elem, d)
			}
			if elem == dense.Complex {
				if d := cmplx.Abs(lo.LogDet() - general.LogDet()); d > 1e-9 {
					t.Errorf("%s: LogDet differs by %g", g.Name, d)
				}
			}
			a.Release()
			b.Release()
		}
	}
}

// Property: selected inversion matches the dense inverse on random
// symmetric diagonally dominant matrices with random analysis options.
func TestQuickSelInvMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := sparse.RandomSym(10+int(r.Int31n(25)), 2+int(r.Int31n(4)), seed)
		method := []ordering.Method{ordering.Natural, ordering.RCM,
			ordering.NestedDissection, ordering.MinimumDegree}[r.Intn(4)]
		perm := ordering.Compute(method, g.A, nil)
		an := etree.Analyze(g.A.Permute(perm), perm,
			etree.Options{Relax: int(r.Int31n(3)), MaxWidth: 1 + int(r.Int31n(8))})
		lu, err := factor.Factorize(an.A, an.BP)
		if err != nil {
			return false
		}
		res := SelInv(lu)
		want, err := dense.Inverse(an.A.ToDense())
		if err != nil {
			return false
		}
		part, ok := an.BP.Part, true
		res.Range(func(bi, bj int, b *dense.Matrix) {
			r0, c0 := part.Start[bi], part.Start[bj]
			for c := 0; c < b.Cols; c++ {
				for rr := 0; rr < b.Rows; rr++ {
					if d := b.At(rr, c) - want.At(r0+rr, c0+c); d > 1e-7 || d < -1e-7 {
						ok = false
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSelInvGrid2D12(b *testing.B) {
	an := analyze(sparse.Grid2D(12, 12, 1), ordering.NestedDissection, etree.Options{Relax: 4, MaxWidth: 24})
	lu := factorize(b, an, dense.Real, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelInv(lu).Release()
	}
}

func BenchmarkComplexSelInvGrid8(b *testing.B) {
	an := analyze(sparse.Grid2D(8, 8, 1), ordering.NestedDissection, etree.Options{Relax: 2, MaxWidth: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SelInv(factorize(b, an, dense.Complex, complex(0.5, 1))).Release()
	}
}
