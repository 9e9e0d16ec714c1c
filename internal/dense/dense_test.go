package dense

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// Test-only constructors and unpackers; nothing outside this package's tests
// ever called them.

// FromRowMajor builds a Matrix from a row-major [][]float64.
func FromRowMajor(rows [][]float64) *Matrix {
	m := len(rows)
	n := 0
	if m > 0 {
		n = len(rows[0])
	}
	a := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		if len(rows[i]) != n {
			panic("dense: ragged rows in FromRowMajor")
		}
		for j := 0; j < n; j++ {
			a.Set(i, j, rows[i][j])
		}
	}
	return a
}

// TriInverse returns the inverse of the triangular matrix t (with the given
// triangle and diagonal convention) as a fresh matrix.
func TriInverse(uplo UpLo, diag Diag, t *Matrix) *Matrix {
	n := t.Rows
	if t.Cols != n {
		panic("dense: TriInverse of non-square matrix")
	}
	inv := Eye(n)
	Trsm(Left, uplo, NoTrans, diag, t, inv)
	return inv
}

// SplitLU unpacks an in-place LU factorization into explicit unit-lower L
// and upper U factors.
func SplitLU(f *Matrix) (l, u *Matrix) {
	n := f.Rows
	l = Eye(n)
	u = NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i > j {
				l.Set(i, j, f.At(i, j))
			} else {
				u.Set(i, j, f.At(i, j))
			}
		}
	}
	return l, u
}

// Transpose returns aᵀ as a new matrix.
func (a *Matrix) Transpose() *Matrix {
	t := NewMatrixElem(a.Cols, a.Rows, a.Elem)
	a.TransposeInto(t)
	return t
}

// MaxAbs returns max |a_ij|, or 0 for an empty matrix.
func (a *Matrix) MaxAbs() float64 {
	d := 0.0
	for i := range a.Data {
		if v := math.Abs(a.Data[i]); v > d {
			d = v
		}
	}
	return d
}

func randMat(rng *rand.Rand, m, n int) *Matrix {
	a := NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

// randDiagDom returns a random diagonally dominant n×n matrix (always
// invertible, LU-stable without pivoting).
func randDiagDom(rng *rand.Rand, n int) *Matrix {
	a := randMat(rng, n, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += math.Abs(a.At(i, j))
		}
		a.Set(i, i, s+1)
	}
	return a
}

func naiveMul(ta, tb Trans, a, b *Matrix) *Matrix {
	opA, opB := a, b
	if ta == DoTrans {
		opA = a.Transpose()
	}
	if tb == DoTrans {
		opB = b.Transpose()
	}
	c := NewMatrix(opA.Rows, opB.Cols)
	for i := 0; i < opA.Rows; i++ {
		for j := 0; j < opB.Cols; j++ {
			s := 0.0
			for k := 0; k < opA.Cols; k++ {
				s += opA.At(i, k) * opB.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestAtSetRoundTrip(t *testing.T) {
	a := NewMatrix(3, 4)
	a.Set(2, 3, 7.5)
	if a.At(2, 3) != 7.5 {
		t.Fatalf("At(2,3) = %v, want 7.5", a.At(2, 3))
	}
	if a.Data[2+3*3] != 7.5 {
		t.Fatalf("column-major layout broken")
	}
}

func TestFromRowMajor(t *testing.T) {
	a := FromRowMajor([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if a.Rows != 3 || a.Cols != 2 {
		t.Fatalf("shape %dx%d", a.Rows, a.Cols)
	}
	if a.At(1, 0) != 3 || a.At(2, 1) != 6 {
		t.Fatalf("entries wrong: %v", a)
	}
}

func TestGemmAllTransposeCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ ta, tb Trans }{
		{NoTrans, NoTrans}, {DoTrans, NoTrans}, {NoTrans, DoTrans}, {DoTrans, DoTrans},
	} {
		m, n, k := 5, 7, 4
		var a, b *Matrix
		if tc.ta == NoTrans {
			a = randMat(rng, m, k)
		} else {
			a = randMat(rng, k, m)
		}
		if tc.tb == NoTrans {
			b = randMat(rng, k, n)
		} else {
			b = randMat(rng, n, k)
		}
		got := Mul(tc.ta, tc.tb, a, b)
		want := naiveMul(tc.ta, tc.tb, a, b)
		if d := got.MaxAbsDiff(want); d > 1e-12 {
			t.Errorf("ta=%v tb=%v: max diff %g", tc.ta, tc.tb, d)
		}
	}
}

func TestGemmAlphaBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 4, 3)
	b := randMat(rng, 3, 5)
	c := randMat(rng, 4, 5)
	c0 := c.Clone()
	Gemm(NoTrans, NoTrans, 2.5, a, b, -1.5, c)
	want := naiveMul(NoTrans, NoTrans, a, b)
	for i := range want.Data {
		want.Data[i] = 2.5*want.Data[i] - 1.5*c0.Data[i]
	}
	if d := c.MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("alpha/beta gemm wrong: %g", d)
	}
}

func TestGemmShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Gemm(NoTrans, NoTrans, 1, NewMatrix(2, 3), NewMatrix(4, 5), 0, NewMatrix(2, 5))
}

// wellCondTri returns a full n×n matrix either of whose triangles is a
// well-conditioned triangular operand under both diagonal conventions:
// diagonal in [2, 3), off-diagonals scaled by 1/n (a random unit triangle
// would be exponentially ill-conditioned in n).
func wellCondTri(rng *rand.Rand, n int) *Matrix {
	tri := randMat(rng, n, n)
	tri.Scale(1 / float64(n))
	for j := 0; j < n; j++ {
		tri.Set(j, j, 2+rng.Float64())
	}
	return tri
}

// TestTrsmAllVariants checks every side/uplo/trans/diag case by its
// residual ‖op(T)·X − B‖∞, formed with naiveMul so the oracle shares no
// loop with the solve, at a supernode-block order and at orders well past
// any the system issues (the whole-matrix oracle Inverse solves those).
// The opposite triangle is populated, so reading it would show.
func TestTrsmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sz := range [][2]int{{6, 4}, {97, 1}, {97, 7}, {97, 40}, {145, 1}, {145, 7}, {145, 40}} {
		n, m := sz[0], sz[1]
		tri := wellCondTri(rng, n)
		for _, side := range []Side{Left, Right} {
			b := randMat(rng, n, m)
			if side == Right {
				b = randMat(rng, m, n)
			}
			for _, uplo := range []UpLo{Lower, Upper} {
				for _, tt := range []Trans{NoTrans, DoTrans} {
					for _, dg := range []Diag{NonUnit, Unit} {
						x := b.Clone()
						Trsm(side, uplo, tt, dg, tri, x)
						// The triangle Trsm was told to use, diag convention applied.
						eff := NewMatrix(n, n)
						for j := 0; j < n; j++ {
							for i := 0; i < n; i++ {
								switch {
								case i == j && dg == Unit:
									eff.Set(i, j, 1)
								case i == j, uplo == Lower && i > j, uplo == Upper && i < j:
									eff.Set(i, j, tri.At(i, j))
								}
							}
						}
						var back *Matrix
						if side == Left {
							back = naiveMul(tt, NoTrans, eff, x)
						} else {
							back = naiveMul(NoTrans, tt, x, eff)
						}
						if d := back.MaxAbsDiff(b); d > tolFor(n) {
							t.Errorf("n=%d rhs=%d side=%v uplo=%v trans=%v diag=%v: residual %g",
								n, m, side, uplo, tt, dg, d)
						}
					}
				}
			}
		}
	}
}

func TestLUReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 12; n++ {
		a := randDiagDom(rng, n)
		f := a.Clone()
		if err := LU(f); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l, u := SplitLU(f)
		if d := Mul(NoTrans, NoTrans, l, u).MaxAbsDiff(a); d > 1e-9*a.MaxAbs() {
			t.Errorf("n=%d: |LU-A| = %g", n, d)
		}
	}
}

func TestLUZeroPivot(t *testing.T) {
	a := FromRowMajor([][]float64{{0, 1}, {1, 0}})
	if err := LU(a); err == nil {
		t.Fatal("expected zero-pivot error")
	}
}

// TestLUNonFinitePivot: NaN and ±Inf pivots take the zero-pivot error path,
// real and complex, whether they are in the input or arise in a later column.
func TestLUNonFinitePivot(t *testing.T) {
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := LU(FromRowMajor([][]float64{{p, 1}, {1, 2}})); err == nil {
			t.Errorf("real LU accepted pivot %g", p)
		}
		if err := LU(FromRowMajor([][]float64{{2, 1}, {p, 2}})); err == nil {
			t.Errorf("real LU accepted a second pivot poisoned by %g", p)
		}
		for _, z := range []complex128{complex(p, 1), complex(1, p)} {
			a := NewMatrixElem(2, 2, Complex)
			a.ZSet(0, 0, z)
			a.ZSet(0, 1, 1)
			a.ZSet(1, 0, 1)
			a.ZSet(1, 1, 2)
			if err := LU(a); err == nil {
				t.Errorf("complex LU accepted pivot %v", z)
			}
		}
	}
}

func TestLUPartialPivot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 10; n++ {
		a := randMat(rng, n, n)
		f := a.Clone()
		perm, err := LUPartialPivot(f)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l, u := SplitLU(f)
		lu := Mul(NoTrans, NoTrans, l, u)
		// lu row i should equal a row perm[i].
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(lu.At(i, j)-a.At(perm[i], j)) > 1e-9 {
					t.Fatalf("n=%d: PA != LU at (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func TestLUPartialPivotSingular(t *testing.T) {
	a := FromRowMajor([][]float64{{1, 2}, {2, 4}})
	if _, err := LUPartialPivot(a); err == nil {
		t.Fatal("expected singularity error")
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sizes := []int{150} // whole-matrix order: what the other packages' oracles ask for
	for n := 1; n <= 15; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		a := randDiagDom(rng, n)
		inv, err := Inverse(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := naiveMul(NoTrans, NoTrans, a, inv).MaxAbsDiff(Eye(n)); d > 1e-9 {
			t.Errorf("n=%d: |A*inv(A)-I| = %g", n, d)
		}
	}
}

// TestInverseComplexEmbedding checks, at a whole-matrix order, the oracle
// the complex tests of other packages build on Inverse: (A − zI)⁻¹ read off
// the pivoted real inverse of the 2n×2n embedding [[Re, −Im], [Im, Re]],
// with the residual (A − zI)·X − I formed in complex128 arithmetic.
func TestInverseComplexEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n = 150
	z := complex(0.5, 2)
	a := randDiagDom(rng, n)
	emb := NewMatrix(2*n, 2*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			emb.Set(i, j, a.At(i, j))
			emb.Set(n+i, n+j, a.At(i, j))
		}
		emb.Add(j, j, -real(z))
		emb.Add(n+j, n+j, -real(z))
		emb.Set(j, n+j, imag(z))
		emb.Set(n+j, j, -imag(z))
	}
	inv, err := Inverse(emb)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := func(k int) complex128 { return complex(inv.At(k, j), inv.At(n+k, j)) }
			s := -z * x(i)
			for k := 0; k < n; k++ {
				s += complex(a.At(i, k), 0) * x(k)
			}
			if i == j {
				s -= 1
			}
			worst = math.Max(worst, cmplx.Abs(s))
		}
	}
	if worst > 1e-9 {
		t.Errorf("|(A-zI)*X-I| = %g", worst)
	}
}

func TestTriInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 8
	for _, uplo := range []UpLo{Lower, Upper} {
		for _, dg := range []Diag{NonUnit, Unit} {
			tri := NewMatrix(n, n)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					if (uplo == Lower && i > j) || (uplo == Upper && i < j) {
						tri.Set(i, j, rng.NormFloat64()*0.3)
					}
				}
				tri.Set(j, j, 1.5+rng.Float64())
			}
			inv := TriInverse(uplo, dg, tri)
			eff := tri.Clone()
			if dg == Unit {
				for i := 0; i < n; i++ {
					eff.Set(i, i, 1)
				}
			}
			if d := Mul(NoTrans, NoTrans, eff, inv).MaxAbsDiff(Eye(n)); d > 1e-9 {
				t.Errorf("uplo=%v diag=%v: residual %g", uplo, dg, d)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(rng, 5, 9)
	if d := a.Transpose().Transpose().MaxAbsDiff(a); d != 0 {
		t.Fatalf("(Aᵀ)ᵀ != A: %g", d)
	}
}

func TestIsSymmetric(t *testing.T) {
	a := FromRowMajor([][]float64{{1, 2}, {2, 3}})
	if !a.IsSymmetric(0) {
		t.Fatal("symmetric matrix reported asymmetric")
	}
	a.Set(0, 1, 2.5)
	if a.IsSymmetric(1e-9) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	if NewMatrix(2, 3).IsSymmetric(0) {
		t.Fatal("non-square matrix reported symmetric")
	}
}

func TestNorms(t *testing.T) {
	a := FromRowMajor([][]float64{{1, -2}, {-3, 4}})
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v, want 4", a.MaxAbs())
	}
}

// Property: Gemm is linear in its first operand.
func TestQuickGemmLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64, alpha float64) bool {
		r := rand.New(rand.NewSource(seed))
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e6 {
			alpha = r.NormFloat64()
		}
		a1 := randMat(r, 4, 3)
		a2 := randMat(r, 4, 3)
		b := randMat(r, 3, 5)
		sum := a1.Clone()
		sum.AddScaled(alpha, a2)
		left := Mul(NoTrans, NoTrans, sum, b)
		right := Mul(NoTrans, NoTrans, a1, b)
		r2 := Mul(NoTrans, NoTrans, a2, b)
		right.AddScaled(alpha, r2)
		return left.MaxAbsDiff(right) < 1e-8*(1+math.Abs(alpha))
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestQuickGemmTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMat(r, 3, 4)
		b := randMat(r, 4, 6)
		lhs := Mul(NoTrans, NoTrans, a, b).Transpose()
		rhs := Mul(DoTrans, DoTrans, b, a)
		return lhs.MaxAbsDiff(rhs) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: inverse of a random diagonally dominant matrix is a true inverse.
func TestQuickInverseResidual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(r.Int31n(10))
		a := randDiagDom(r, n)
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		return Mul(NoTrans, NoTrans, inv, a).MaxAbsDiff(Eye(n)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFlopCounts(t *testing.T) {
	if GemmFlops(2, 3, 4) != 48 {
		t.Fatalf("GemmFlops wrong: %d", GemmFlops(2, 3, 4))
	}
	if TrsmFlops(3, 5) != 45 {
		t.Fatalf("TrsmFlops wrong: %d", TrsmFlops(3, 5))
	}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	return a
}

// Mul returns op(a)*op(b) as a fresh matrix.
func Mul(ta, tb Trans, a, b *Matrix) *Matrix {
	am := a.Rows
	if ta == DoTrans {
		am = a.Cols
	}
	bn := b.Cols
	if tb == DoTrans {
		bn = b.Rows
	}
	c := NewMatrix(am, bn)
	Gemm(ta, tb, 1, a, b, 0, c)
	return c
}
