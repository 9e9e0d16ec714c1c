package factor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

func analyze(g *sparse.Generated, opt etree.Options) *etree.Analysis {
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	return etree.Analyze(g.A.Permute(perm), perm, opt)
}

func residual(t *testing.T, g *sparse.Generated, opt etree.Options) float64 {
	t.Helper()
	an := analyze(g, opt)
	lu, err := Factorize(an.A, an.BP)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	back := lu.ReconstructDense()
	want := an.A.ToDense()
	return back.MaxAbsDiff(want) / (1 + want.MaxAbs())
}

func TestFactorizeResidualSmall(t *testing.T) {
	for _, g := range []*sparse.Generated{
		sparse.Banded(12, 2, 1),
		sparse.Grid2D(5, 5, 2),
		sparse.RandomSym(30, 4, 3),
		sparse.DG2D(3, 3, 3, 4),
	} {
		if r := residual(t, g, etree.Options{}); r > 1e-10 {
			t.Errorf("%s: relative residual %g", g.Name, r)
		}
	}
}

func TestFactorizeWithRelaxationAndWidthCap(t *testing.T) {
	g := sparse.Grid2D(8, 7, 5)
	for _, opt := range []etree.Options{
		{}, {Relax: 2}, {MaxWidth: 3}, {Relax: 4, MaxWidth: 8},
	} {
		if r := residual(t, g, opt); r > 1e-10 {
			t.Errorf("opt %+v: relative residual %g", opt, r)
		}
	}
}

func TestFactorizeGrid3D(t *testing.T) {
	g := sparse.Grid3D(4, 4, 4, 7)
	if r := residual(t, g, etree.Options{Relax: 2, MaxWidth: 16}); r > 1e-10 {
		t.Errorf("relative residual %g", r)
	}
}

func TestDiagInverse(t *testing.T) {
	g := sparse.Grid2D(6, 6, 9)
	an := analyze(g, etree.Options{MaxWidth: 8})
	lu, err := Factorize(an.A, an.BP)
	if err != nil {
		t.Fatal(err)
	}
	// Pick the last (root) supernode: its diagonal factor is the fully
	// eliminated trailing Schur complement, whose inverse must equal the
	// trailing block of A⁻¹.
	ns := an.BP.NumSnodes()
	k := ns - 1
	inv := dense.NewMatrix(an.BP.Part.Width(k), an.BP.Part.Width(k))
	lu.DiagInverseTo(k, inv)
	ad, err := dense.Inverse(an.A.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := an.BP.Part.Cols(k)
	for j := lo; j < hi; j++ {
		for i := lo; i < hi; i++ {
			got := inv.At(i-lo, j-lo)
			want := ad.At(i, j)
			if diff := got - want; diff > 1e-8 || diff < -1e-8 {
				t.Fatalf("trailing diag inverse (%d,%d): got %g want %g", i, j, got, want)
			}
		}
	}
}

func TestLBlockUBlockPanicsOnWrongTriangle(t *testing.T) {
	g := sparse.Banded(6, 1, 1)
	an := analyze(g, etree.Options{})
	lu, err := Factorize(an.A, an.BP)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []func(){
		func() { lu.LBlock(0, 0) },
		func() { lu.UBlock(1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFactorizeSingularFails(t *testing.T) {
	// A structurally fine but numerically singular matrix must error.
	ts := []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1},
	}
	a := sparse.FromTriplets(2, ts)
	an := etree.Analyze(a, ordering.Identity(2), etree.Options{})
	if _, err := Factorize(an.A, an.BP); err == nil {
		t.Fatal("expected factorization failure on singular matrix")
	}
}

func TestFactorFlopsPositive(t *testing.T) {
	g := sparse.Grid2D(6, 6, 1)
	an := analyze(g, etree.Options{})
	lu, err := Factorize(an.A, an.BP)
	if err != nil {
		t.Fatal(err)
	}
	if lu.FactorFlops <= 0 {
		t.Fatal("FactorFlops not counted")
	}
}

// Property: factorization residual is tiny for random diagonally dominant
// symmetric matrices under random analysis options.
func TestQuickFactorizeResidual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := sparse.RandomSym(15+int(r.Int31n(30)), 2+int(r.Int31n(4)), seed)
		an := etree.Analyze(g.A, ordering.Identity(g.A.N),
			etree.Options{Relax: int(r.Int31n(3)), MaxWidth: 1 + int(r.Int31n(10))})
		lu, err := Factorize(an.A, an.BP)
		if err != nil {
			return false
		}
		want := an.A.ToDense()
		return lu.ReconstructDense().MaxAbsDiff(want) <= 1e-9*(1+want.MaxAbs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFactorizeGrid2D16(b *testing.B) {
	g := sparse.Grid2D(16, 16, 1)
	an := analyze(g, etree.Options{Relax: 4, MaxWidth: 32})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factorize(an.A, an.BP); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLogAbsDetMatchesDense(t *testing.T) {
	g := sparse.Grid2D(5, 5, 7)
	an := analyze(g, etree.Options{MaxWidth: 6})
	lu, err := Factorize(an.A, an.BP)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: log|det| from a dense pivoted LU.
	d := an.A.ToDense()
	perm, err := dense.LUPartialPivot(d)
	if err != nil {
		t.Fatal(err)
	}
	_ = perm
	want := 0.0
	for i := 0; i < d.Rows; i++ {
		want += math.Log(math.Abs(d.At(i, i)))
	}
	if got := lu.LogAbsDet(); math.Abs(got-want) > 1e-8 {
		t.Fatalf("LogAbsDet = %g, want %g", got, want)
	}
}
