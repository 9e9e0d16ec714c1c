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

// reconstructDense multiplies the factors back into a dense matrix, for
// validating ‖LU − A‖.
func reconstructDense(lu *LU) *dense.Matrix {
	part := lu.BP.Part
	n := part.Start[len(part.Start)-1]
	ns := lu.BP.NumSnodes()
	l := dense.NewMatrix(n, n)
	u := dense.NewMatrix(n, n)
	for k := 0; k < ns; k++ {
		r0 := part.Start[k]
		dk := lu.Diag(k)
		for j := 0; j < dk.Cols; j++ {
			l.Set(r0+j, r0+j, 1)
			for i := 0; i < dk.Rows; i++ {
				if i > j {
					l.Set(r0+i, r0+j, dk.At(i, j))
				} else {
					u.Set(r0+i, r0+j, dk.At(i, j))
				}
			}
		}
		for _, i := range lu.BP.Struct(k) {
			i0 := part.Start[i]
			if lb, ok := lu.LBlock(i, k); ok {
				for c := 0; c < lb.Cols; c++ {
					for r := 0; r < lb.Rows; r++ {
						l.Set(i0+r, r0+c, lb.At(r, c))
					}
				}
			}
			if ub, ok := lu.UBlock(k, i); ok {
				for c := 0; c < ub.Cols; c++ {
					for r := 0; r < ub.Rows; r++ {
						u.Set(r0+r, i0+c, ub.At(r, c))
					}
				}
			}
		}
	}
	return dense.Mul(dense.NoTrans, dense.NoTrans, l, u)
}

func residual(t *testing.T, g *sparse.Generated, opt etree.Options) float64 {
	t.Helper()
	an := analyze(g, opt)
	lu, err := Factorize(an.A, an.BP)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	back := reconstructDense(lu)
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
	// The count is the pattern's: every factorization on it costs the same.
	if lu.BP.FactorFlops() <= 0 {
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
		return reconstructDense(lu).MaxAbsDiff(want) <= 1e-9*(1+want.MaxAbs())
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

// sameLU asserts two factorizations on one pattern agree bit for bit, flags
// included.
func sameLU(t *testing.T, label string, want, got *LU) {
	t.Helper()
	if want.Elem != got.Elem || want.Symmetric != got.Symmetric {
		t.Fatalf("%s: (elem, symmetric) = (%v, %v), want (%v, %v)", label, got.Elem, got.Symmetric, want.Elem, want.Symmetric)
	}
	for i := range want.slab {
		if math.Float64bits(want.slab[i]) != math.Float64bits(got.slab[i]) {
			t.Fatalf("%s: slab[%d] = %x, want %x", label, i, math.Float64bits(got.slab[i]), math.Float64bits(want.slab[i]))
		}
	}
}

// nanAt returns a copy of a with the diagonal entry of column j poisoned.
func nanAt(a *sparse.CSC, j int) *sparse.CSC {
	bad := a.Clone()
	for p := bad.ColPtr[j]; p < bad.ColPtr[j+1]; p++ {
		if bad.RowIdx[p] == j {
			bad.Val[p] = math.NaN()
		}
	}
	return bad
}

// TestRefactorizeBitIdentical: an LU refactorized in place equals a fresh
// factorization of the same input bit for bit, whatever the storage held
// before — another shift, another matrix's values (an asymmetric one, whose
// fill blocks and Symmetric flag differ), or the debris of a factorization
// that failed half way (unzeroed fill blocks would show here).
func TestRefactorizeBitIdentical(t *testing.T) {
	g := sparse.DG2D(5, 5, 3, 4)
	an := analyze(g, etree.Options{Relax: 4, MaxWidth: 12})
	other := an.A.Clone() // same pattern, different and asymmetric values
	r := rand.New(rand.NewSource(5))
	for p := range other.Val {
		other.Val[p] *= 1 + 0.3*r.Float64()
	}
	poisoned := nanAt(an.A, an.A.N/2)
	for _, tc := range []struct {
		name  string
		z     complex128
		fresh func(a *sparse.CSC, z complex128) (*LU, error)
	}{
		{"real", 0, func(a *sparse.CSC, _ complex128) (*LU, error) { return Factorize(a, an.BP) }},
		{"complex", complex(0.3, 0.7), func(a *sparse.CSC, z complex128) (*LU, error) { return FactorizeShifted(a, z, an.BP) }},
	} {
		want, err := tc.fresh(an.A, tc.z)
		if err != nil {
			t.Fatal(err)
		}
		wantOther, err := tc.fresh(other, tc.z)
		if err != nil {
			t.Fatal(err)
		}
		if want.Symmetric == wantOther.Symmetric {
			t.Fatalf("%s: the two inputs should differ in value symmetry", tc.name)
		}
		lu, err := tc.fresh(other, tc.z+2)
		if err != nil {
			t.Fatal(err)
		}
		step := func(label string, a *sparse.CSC, want *LU) {
			t.Helper()
			if err := lu.Refactorize(a, tc.z); err != nil {
				t.Fatalf("%s %s: %v", tc.name, label, err)
			}
			sameLU(t, tc.name+" "+label, want, lu)
		}
		step("after another shift of another matrix", an.A, want)
		step("after another matrix", other, wantOther)
		step("twice", other, wantOther)
		if err := lu.Refactorize(poisoned, tc.z); err == nil {
			t.Fatalf("%s: NaN diagonal factorized", tc.name)
		}
		step("after a failed factorization", an.A, want)
	}
}

// TestRefactorizeAllocs: refactorizing in place allocates (next to) nothing —
// no block, no header, no map; the kernels' pack buffers come from the arena.
func TestRefactorizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the kernels' pack buffers at random")
	}
	g := sparse.DG2D(6, 6, 4, 1)
	an := analyze(g, etree.Options{Relax: 4, MaxWidth: 48})
	for _, z := range []complex128{0, complex(0.3, 0.7)} {
		lu := New(an.BP, map[bool]dense.Elem{true: dense.Real, false: dense.Complex}[z == 0])
		refactorize := func() {
			if err := lu.Refactorize(an.A, z); err != nil {
				t.Fatal(err)
			}
		}
		refactorize() // warm the arena
		if n := testing.AllocsPerRun(10, refactorize); n > 8 {
			t.Errorf("%s Refactorize: %.0f allocations per run, want ≤ 8", lu.Elem, n)
		}
	}
}

// TestAssembleRoundTrip: assembly alone puts every stored entry of A − zI,
// and nothing else, where the block accessors find it.
func TestAssembleRoundTrip(t *testing.T) {
	g := sparse.Asymmetrize(sparse.Grid2D(5, 4, 1), 3, 0.5)
	an := analyze(g, etree.Options{MaxWidth: 3})
	part := an.BP.Part
	for _, elem := range []dense.Elem{dense.Real, dense.Complex} {
		z := complex(0.25, 0)
		if elem == dense.Complex {
			z = complex(0.25, -1.5)
		}
		lu := New(an.BP, elem)
		lu.assemble(an.A, z)
		for j := 0; j < an.A.N; j++ {
			for i := 0; i < an.A.N; i++ {
				want := complex(an.A.At(i, j), 0)
				if i == j {
					want -= z
				}
				ki, kj := part.SnodeOf[i], part.SnodeOf[j]
				var b *dense.Matrix
				ok := true
				switch {
				case ki == kj:
					b = lu.Diag(ki)
				case ki > kj:
					b, ok = lu.LBlock(ki, kj)
				default:
					b, ok = lu.UBlock(ki, kj)
				}
				var got complex128
				if ok && elem == dense.Complex {
					got = b.ZAt(i-part.Start[ki], j-part.Start[kj])
				} else if ok {
					got = complex(b.At(i-part.Start[ki], j-part.Start[kj]), 0)
				}
				if got != want {
					t.Fatalf("%s: assembled (%d,%d) = %v, want %v", elem, i, j, got, want)
				}
			}
		}
	}
}

func TestAssembleRejectsEntryOutsidePattern(t *testing.T) {
	g := sparse.Banded(8, 1, 1)
	an := etree.Analyze(g.A, ordering.Identity(8), etree.Options{MaxWidth: 2})
	dense8 := sparse.Banded(8, 7, 1).A // every entry stored: most lie outside the band's blocks
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic naming the stray entry")
		}
	}()
	Factorize(dense8, an.BP)
}

// BenchmarkRefactorize is the per-pole numeric factorization at the
// benchmark's DG2D shapes (warm_dg2d_p16 real, pexsi_z16_p16 complex), in
// place: what a pole costs once the LU exists. Tracked by the bench gate.
func BenchmarkRefactorize(b *testing.B) {
	an := analyze(sparse.DG2D(16, 16, 4, 1), etree.Options{Relax: 4, MaxWidth: 48})
	for _, bc := range []struct {
		name string
		elem dense.Elem
		z    complex128
	}{{"real", dense.Real, 0}, {"complex", dense.Complex, complex(0, 0.3)}} {
		b.Run(bc.name, func(b *testing.B) {
			lu := New(an.BP, bc.elem)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lu.Refactorize(an.A, bc.z); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
