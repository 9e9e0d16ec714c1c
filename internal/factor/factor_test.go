package factor

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

func analyze(g *sparse.Generated, opt etree.Options) *etree.Analysis {
	return analyzeBy(ordering.NestedDissection, g, opt)
}

func analyzeBy(m ordering.Method, g *sparse.Generated, opt etree.Options) *etree.Analysis {
	perm := ordering.Compute(m, g.A, g.Geom)
	return etree.Analyze(g.A.Permute(perm), perm, opt)
}

// mustScatter is NewScatter for inputs that lie in the pattern.
func mustScatter(tb testing.TB, a *sparse.CSC, perm []int, bp *etree.BlockPattern) *Scatter {
	tb.Helper()
	s, err := NewScatter(a, perm, bp)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// withValues returns a matrix on a's pattern with a copy of its values, as
// sparse.CSC.ShiftDiagonal makes one.
func withValues(a *sparse.CSC) *sparse.CSC {
	return &sparse.CSC{N: a.N, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: slices.Clone(a.Val)}
}

// nudged returns a copy of a with one strictly-lower entry moved by one ulp:
// the same matrix to rounding, but not exactly symmetric, so detection picks
// the general loop and the full layout.
func nudged(a *sparse.CSC) *sparse.CSC {
	b := withValues(a)
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

// zat reads one scalar of a block of either element type.
func zat(b *dense.Matrix, r, c int) complex128 {
	if b.Elem == dense.Complex {
		return b.ZAt(r, c)
	}
	return complex(b.At(r, c), 0)
}

// factorResidual multiplies the factors back — U through UCopy, which for a
// symmetric LU is the only place an upper block exists — and returns
// ‖L·U − (A − zI)‖_max relative to 1 + ‖A − zI‖_max.
func factorResidual(lu *LU, a *sparse.CSC, z complex128) float64 {
	part := lu.BP.Part
	n := a.N
	l, u := make([]complex128, n*n), make([]complex128, n*n)
	put := func(m []complex128, b *dense.Matrix, r0, c0 int, keep func(r, c int) bool) {
		for c := 0; c < b.Cols; c++ {
			for r := 0; r < b.Rows; r++ {
				if keep(r, c) {
					m[r0+r+(c0+c)*n] = zat(b, r, c)
				}
			}
		}
	}
	for k := 0; k < lu.BP.NumSnodes(); k++ {
		k0 := part.Start[k]
		put(l, lu.Diag(k), k0, k0, func(r, c int) bool { return r > c })
		put(u, lu.Diag(k), k0, k0, func(r, c int) bool { return r <= c })
		for i := k0; i < part.Start[k+1]; i++ {
			l[i+i*n] = 1
		}
		for _, i := range lu.BP.Struct(k) {
			lb, _ := lu.LBlock(i, k)
			put(l, lb, part.Start[i], k0, func(int, int) bool { return true })
			ub := lu.UCopy(k, i)
			put(u, ub, k0, part.Start[i], func(int, int) bool { return true })
			dense.PutMatrix(ub)
		}
	}
	var worst, scale float64
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			want := complex(a.At(i, j), 0)
			if i == j {
				want -= z
			}
			var got complex128
			for k := 0; k <= min(i, j); k++ {
				got += l[i+k*n] * u[k+j*n]
			}
			worst, scale = max(worst, cmplx.Abs(got-want)), max(scale, cmplx.Abs(want))
		}
	}
	return worst / (1 + scale)
}

func residual(t *testing.T, g *sparse.Generated, opt etree.Options) float64 {
	t.Helper()
	an := analyze(g, opt)
	lu, err := Factorize(an.A, an.BP)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return factorResidual(lu, an.A, 0)
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
		func() { lu.UCopy(1, 1) },
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
		return factorResidual(lu, an.A, 0) <= 1e-9
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
	if len(got.slab) < len(want.slab) {
		t.Fatalf("%s: slab of %d words, want at least %d", label, len(got.slab), len(want.slab))
	}
	for i := range want.slab {
		if math.Float64bits(want.slab[i]) != math.Float64bits(got.slab[i]) {
			t.Fatalf("%s: slab[%d] = %x, want %x", label, i, math.Float64bits(got.slab[i]), math.Float64bits(want.slab[i]))
		}
	}
}

// nanAt returns a copy of a with the diagonal entry of column j poisoned.
func nanAt(a *sparse.CSC, j int) *sparse.CSC {
	bad := withValues(a)
	for p := bad.ColPtr[j]; p < bad.ColPtr[j+1]; p++ {
		if bad.RowIdx[p] == j {
			bad.Val[p] = math.NaN()
		}
	}
	return bad
}

// oracleRefactorize is the assembly the scatter map replaced, kept as the
// map's oracle: A permuted into the block pattern's ordering, then one sweep
// down each column of the copy, its block looked up once per run of rows
// that share one (for symmetric values the rows above the column's supernode
// skipped), z subtracted on the diagonal; then the elimination.
func oracleRefactorize(lu *LU, a *sparse.CSC, perm []int, z complex128) error {
	pa := a.Permute(perm)
	part, ew := lu.BP.Part, lu.Elem.Width()
	lu.Symmetric = pa.IsSymmetric(0)
	lu.reset()
	for j := 0; j < pa.N; j++ {
		kj := part.SnodeOf[j]
		jc := j - part.Start[kj]
		cur := -1
		var blk *dense.Matrix
		for p := pa.ColPtr[j]; p < pa.ColPtr[j+1]; p++ {
			i := pa.RowIdx[p]
			ki := part.SnodeOf[i]
			if ki < kj && lu.Symmetric {
				continue
			}
			if ki != cur {
				cur, blk = ki, lu.block(ki, kj)
			}
			blk.Data[(i-part.Start[cur]+jc*blk.Rows)*ew] = pa.Val[p]
		}
		d := lu.Diag(kj).Data[(jc+jc*part.Width(kj))*ew:]
		d[0] += -real(z)
		if ew == 2 {
			d[1] += -imag(z)
		}
	}
	return lu.eliminate()
}

// TestRefactorizeBitIdentical: values reach the slab through the scatter map
// exactly where the permute-and-sweep oracle puts them — the whole factor
// slab is bit-equal to the oracle's for real and complex elements, symmetric
// and general values, natural and nested-dissection orderings, on four
// generators, whether the map is the analysis's of the caller's matrix or
// Factorize's identity map of the permuted one. And an LU refactorized in
// place equals a fresh factorization of the same input bit for bit, whatever
// the storage held before — another shift, another matrix's values (an
// asymmetric one, whose fill blocks and Symmetric flag differ), or the debris
// of a factorization that failed half way (unzeroed fill blocks would show
// here).
func TestRefactorizeBitIdentical(t *testing.T) {
	for _, pair := range [][2]*sparse.Generated{ // symmetric values, general values; one pattern
		{sparse.DG2D(4, 4, 3, 4), sparse.Asymmetrize(sparse.DG2D(4, 4, 3, 4), 1, 0.5)},
		{sparse.Grid2D(7, 6, 2), sparse.Asymmetrize(sparse.Grid2D(7, 6, 2), 2, 0.5)},
		{sparse.RandomSym(40, 4, 3), sparse.RandomAsym(40, 4, 3)},
		{sparse.Banded(20, 3, 5), sparse.Asymmetrize(sparse.Banded(20, 3, 5), 3, 0.5)},
	} {
		for _, m := range []ordering.Method{ordering.Natural, ordering.NestedDissection} {
			an := analyzeBy(m, pair[0], etree.Options{Relax: 2, MaxWidth: 8})
			for v, g := range pair {
				sc := mustScatter(t, g.A, an.PermTotal, an.BP)
				for _, z := range []complex128{0, complex(0.3, -0.7)} {
					elem := map[bool]dense.Elem{true: dense.Real, false: dense.Complex}[z == 0]
					label := fmt.Sprintf("%s %v %s", g.Name, m, elem)
					want := New(an.BP, elem)
					if err := oracleRefactorize(want, g.A, an.PermTotal, z); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if want.Symmetric != (v == 0) {
						t.Fatalf("%s: Symmetric = %v", label, want.Symmetric)
					}
					got := New(an.BP, elem)
					if err := got.Refactorize(g.A, 0, sc, z); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameLU(t, label+" through the map", want, got)
					ident, err := factorize(g.A.Permute(an.PermTotal), an.BP, elem, z)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameLU(t, label+" through Factorize", want, ident)
				}
			}
		}
	}

	g := sparse.DG2D(5, 5, 3, 4)
	an := analyze(g, etree.Options{Relax: 4, MaxWidth: 12})
	sc := mustScatter(t, g.A, an.PermTotal, an.BP)
	other := withValues(g.A) // same pattern, different and asymmetric values
	r := rand.New(rand.NewSource(5))
	for p := range other.Val {
		other.Val[p] *= 1 + 0.3*r.Float64()
	}
	poisoned := nanAt(g.A, g.A.N/2)
	for _, tc := range []struct {
		name string
		elem dense.Elem
		z    complex128
	}{{"real", dense.Real, 0}, {"complex", dense.Complex, complex(0.3, 0.7)}} {
		fresh := func(a *sparse.CSC, z complex128) (*LU, error) {
			lu := New(an.BP, tc.elem)
			return lu, lu.Refactorize(a, 0, sc, z)
		}
		want, err := fresh(g.A, tc.z)
		if err != nil {
			t.Fatal(err)
		}
		wantOther, err := fresh(other, tc.z)
		if err != nil {
			t.Fatal(err)
		}
		if want.Symmetric == wantOther.Symmetric {
			t.Fatalf("%s: the two inputs should differ in value symmetry", tc.name)
		}
		lu, err := fresh(other, tc.z+2)
		if err != nil {
			t.Fatal(err)
		}
		step := func(label string, a *sparse.CSC, want *LU) {
			t.Helper()
			if err := lu.Refactorize(a, 0, sc, tc.z); err != nil {
				t.Fatalf("%s %s: %v", tc.name, label, err)
			}
			sameLU(t, tc.name+" "+label, want, lu)
		}
		step("after another shift of another matrix", g.A, want)
		step("after another matrix", other, wantOther)
		step("twice", other, wantOther)
		if err := lu.Refactorize(poisoned, 0, sc, tc.z); err == nil {
			t.Fatalf("%s: NaN diagonal factorized", tc.name)
		}
		step("after a failed factorization", g.A, want)

		// Symmetric → general → symmetric: the lower-only slab grows to the
		// full layout once and is kept, the symmetric factor being its prefix.
		if lu, err = fresh(g.A, tc.z+2); err != nil {
			t.Fatal(err)
		}
		ew := lu.Elem.Width()
		if got, want := len(lu.slab), int(an.BP.NNZScalars())*ew; got != want {
			t.Fatalf("%s: symmetric slab holds %d words, want NNZScalars × width = %d", tc.name, got, want)
		}
		step("symmetric again", g.A, want)
		step("general after symmetric", other, wantOther)
		if got, want := len(lu.slab), an.BP.FactorSize(true)*ew; got != want || len(wantOther.slab) != want {
			t.Fatalf("%s: general slabs hold %d and %d words, want %d", tc.name, got, len(wantOther.slab), want)
		}
		grown := &lu.slab[0]
		step("symmetric after general", g.A, want)
		step("general once more", other, wantOther)
		if &lu.slab[0] != grown {
			t.Fatalf("%s: slab reallocated after it had grown to the full layout", tc.name)
		}
	}
}

// TestRefactorizeShiftBitIdentical: a shift σ handed to Refactorize is bit for
// bit the CSC ShiftDiagonal(σ) makes, factorized unshifted — σ lands on each
// diagonal value before z is subtracted — for symmetric and general values,
// real and complex.
func TestRefactorizeShiftBitIdentical(t *testing.T) {
	for _, g := range []*sparse.Generated{sparse.DG2D(4, 4, 3, 4), sparse.Asymmetrize(sparse.DG2D(4, 4, 3, 4), 1, 0.5)} {
		an := analyze(g, etree.Options{Relax: 2, MaxWidth: 8})
		sc := mustScatter(t, g.A, an.PermTotal, an.BP)
		for _, sigma := range []float64{0.5, -1.0 / 3, 1e-17} {
			shifted, err := g.A.ShiftDiagonal(sigma)
			if err != nil {
				t.Fatal(err)
			}
			for _, z := range []complex128{0, complex(0.3, -0.7)} {
				elem := map[bool]dense.Elem{true: dense.Real, false: dense.Complex}[z == 0]
				want, got := New(an.BP, elem), New(an.BP, elem)
				if err := want.Refactorize(shifted, 0, sc, z); err != nil {
					t.Fatal(err)
				}
				if err := got.Refactorize(g.A, sigma, sc, z); err != nil {
					t.Fatal(err)
				}
				sameLU(t, fmt.Sprintf("%s σ=%g z=%v", g.Name, sigma, z), want, got)
			}
		}
	}
}

// TestTwoStorageForms: one matrix factorized lower-only (its values are
// exactly symmetric) and through the general loop (one entry nudged by an
// ulp) gives the same factorization to rounding: both multiply back to A − zI,
// the diagonal inverses (L⁻ᵀD⁻¹L⁻¹ and U⁻¹L⁻¹) and the upper blocks UCopy
// forms from L agree with the general loop's, and so do the
// log-determinants.
func TestTwoStorageForms(t *testing.T) {
	for _, g := range []*sparse.Generated{
		sparse.Banded(14, 3, 2), sparse.Grid2D(6, 5, 4), sparse.RandomSym(30, 4, 2), sparse.DG2D(3, 3, 3, 5),
	} {
		an := analyze(g, etree.Options{Relax: 2, MaxWidth: 6})
		general := nudged(an.A)
		sc := mustScatter(t, an.A, ordering.Identity(an.A.N), an.BP)
		for _, z := range []complex128{0, complex(0.5, -2)} {
			lo, gen := New(an.BP, dense.Real), New(an.BP, dense.Real)
			if z != 0 {
				lo, gen = New(an.BP, dense.Complex), New(an.BP, dense.Complex)
			}
			if err := lo.Refactorize(an.A, 0, sc, z); err != nil {
				t.Fatal(err)
			}
			if err := gen.Refactorize(general, 0, sc, z); err != nil {
				t.Fatal(err)
			}
			if !lo.Symmetric || gen.Symmetric {
				t.Fatalf("%s: Symmetric = %v and %v, want true and false", g.Name, lo.Symmetric, gen.Symmetric)
			}
			if r := factorResidual(lo, an.A, z); r > 1e-10 {
				t.Errorf("%s %v: lower-only residual %g", g.Name, lo.Elem, r)
			}
			if r := factorResidual(gen, general, z); r > 1e-10 {
				t.Errorf("%s %v: general residual %g", g.Name, lo.Elem, r)
			}
			for k := 0; k < an.BP.NumSnodes(); k++ {
				w := an.BP.Part.Width(k)
				ldl, ulu := dense.NewMatrixElem(w, w, lo.Elem), dense.NewMatrixElem(w, w, lo.Elem)
				lo.DiagInverseTo(k, ldl)
				gen.DiagInverseTo(k, ulu)
				if d := ldl.MaxAbsDiff(ulu); d > 1e-9 {
					t.Errorf("%s %v: diagonal inverse %d as L⁻ᵀD⁻¹L⁻¹ is %g off U⁻¹L⁻¹", g.Name, lo.Elem, k, d)
				}
				for _, i := range an.BP.Struct(k) {
					formed, stored := lo.UCopy(k, i), gen.UCopy(k, i)
					if d := formed.MaxAbsDiff(stored); d > 1e-9 {
						t.Errorf("%s %v: U(%d,%d) formed from L is %g off the stored block", g.Name, lo.Elem, k, i, d)
					}
					dense.PutMatrix(formed)
					dense.PutMatrix(stored)
				}
			}
			if d := math.Abs(lo.LogAbsDet() - gen.LogAbsDet()); d > 1e-9 {
				t.Errorf("%s %v: LogAbsDet differs by %g", g.Name, lo.Elem, d)
			}
			if lo.Elem == dense.Complex {
				if d := cmplx.Abs(lo.LogDet() - gen.LogDet()); d > 1e-9 {
					t.Errorf("%s: LogDet differs by %g", g.Name, d)
				}
			}
		}
	}
}

// TestRefactorizeAllocs: refactorizing in place allocates (next to) nothing —
// no block, no header, no map, the scatter map being the caller's, built once
// per analysis; the kernels' pack buffers come from the arena.
func TestRefactorizeAllocs(t *testing.T) {
	g := sparse.DG2D(6, 6, 4, 1)
	an := analyze(g, etree.Options{Relax: 4, MaxWidth: 48})
	sc := mustScatter(t, g.A, an.PermTotal, an.BP)
	for _, z := range []complex128{0, complex(0.3, 0.7)} {
		lu := New(an.BP, map[bool]dense.Elem{true: dense.Real, false: dense.Complex}[z == 0])
		refactorize := func() {
			if err := lu.Refactorize(g.A, 0, sc, z); err != nil {
				t.Fatal(err)
			}
		}
		refactorize() // warm the arena
		if n := testing.AllocsPerRun(10, refactorize); n > 8 {
			t.Errorf("%s Refactorize: %.0f allocations per run, want ≤ 8", lu.Elem, n)
		}
	}
}

// TestScatterSymmetry: the scatter map's mirror reads a matrix's symmetry as
// CSC.IsSymmetric(0) does — exactly symmetric, one ulp off, asymmetric
// values, a NaN (which that comparison lets pass), a pattern missing one
// mirror — without allocating.
func TestScatterSymmetry(t *testing.T) {
	g := sparse.Grid2D(6, 5, 1)
	an := analyze(g, etree.Options{MaxWidth: 4})
	oneSided := &sparse.CSC{N: g.A.N, ColPtr: slices.Clone(g.A.ColPtr)}
	for j := 0; j < g.A.N; j++ {
		for p := g.A.ColPtr[j]; p < g.A.ColPtr[j+1]; p++ {
			if g.A.RowIdx[p] == j+1 && j == 0 { // drop (1, 0), keep (0, 1)
				continue
			}
			oneSided.RowIdx, oneSided.Val = append(oneSided.RowIdx, g.A.RowIdx[p]), append(oneSided.Val, g.A.Val[p])
		}
		oneSided.ColPtr[j+1] = len(oneSided.RowIdx)
	}
	for _, c := range []struct {
		name string
		a    *sparse.CSC
	}{
		{"symmetric", g.A}, {"nudged", nudged(g.A)}, {"asymmetrized", sparse.Asymmetrize(g, 3, 0.5).A},
		{"NaN diagonal", nanAt(g.A, 7)}, {"one-sided pattern", oneSided},
	} {
		sc := mustScatter(t, c.a, an.PermTotal, an.BP)
		if got, want := sc.symmetric(c.a.Val), c.a.IsSymmetric(0); got != want {
			t.Errorf("%s: scatter reads symmetric=%v, IsSymmetric(0) %v", c.name, got, want)
		}
		if n := testing.AllocsPerRun(5, func() { sc.symmetric(c.a.Val) }); n != 0 {
			t.Errorf("%s: %.0f allocations", c.name, n)
		}
	}
}

// TestAssembleRoundTrip: assembly alone — the caller's values through the
// scatter map, then the shift — puts every stored entry of A − zI at its
// permuted position, and nothing else, where the block accessors find it:
// for symmetric values the lower triangle and the diagonal blocks, in a slab
// with no upper half.
func TestAssembleRoundTrip(t *testing.T) {
	for _, g := range []*sparse.Generated{sparse.Asymmetrize(sparse.Grid2D(5, 4, 1), 3, 0.5), sparse.Grid2D(5, 4, 1)} {
		an := analyze(g, etree.Options{MaxWidth: 3})
		sc := mustScatter(t, g.A, an.PermTotal, an.BP)
		part := an.BP.Part
		for _, elem := range []dense.Elem{dense.Real, dense.Complex} {
			z := complex(0.25, 0)
			if elem == dense.Complex {
				z = complex(0.25, -1.5)
			}
			lu := New(an.BP, elem)
			lu.Symmetric = g.A.IsSymmetric(0)
			lu.reset()
			lu.scatter(g.A.Val, 0, sc, z)
			for j := 0; j < an.A.N; j++ {
				for i := 0; i < an.A.N; i++ {
					want := complex(an.A.At(i, j), 0)
					if i == j {
						want -= z
					}
					ki, kj := part.SnodeOf[i], part.SnodeOf[j]
					if ki < kj && lu.Symmetric {
						continue
					}
					var got complex128
					if b := lu.block(ki, kj); b != nil {
						got = zat(b, i-part.Start[ki], j-part.Start[kj])
					}
					if got != want {
						t.Fatalf("%s %s: assembled (%d,%d) = %v, want %v", g.Name, elem, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestAssembleRejectsEntryOutsidePattern: a matrix with entries the block
// pattern has no block for is refused when its map is built, with a typed
// error naming the first stray entry; so is a layout whose offsets overflow
// the map's int32 (one 46,341-wide supernode: 2,147,488,281 scalars).
func TestAssembleRejectsEntryOutsidePattern(t *testing.T) {
	g := sparse.Banded(8, 1, 1)
	an := etree.Analyze(g.A, ordering.Identity(8), etree.Options{MaxWidth: 2})
	dense8 := sparse.Banded(8, 7, 1).A // every entry stored: most lie outside the band's blocks
	if lu, err := Factorize(dense8, an.BP); !errors.Is(err, ErrOutsidePattern) || lu != nil {
		t.Fatalf("Factorize of entries outside the pattern = (%v, %v), want no LU and ErrOutsidePattern", lu, err)
	}
	if _, err := NewScatter(dense8, ordering.Identity(8), an.BP); !errors.Is(err, ErrOutsidePattern) {
		t.Fatalf("NewScatter = %v, want ErrOutsidePattern", err)
	}

	const n = 46341
	diag := make([]sparse.Triplet, n)
	for i := range diag {
		diag[i] = sparse.Triplet{Row: i, Col: i, Val: 1}
	}
	a := sparse.FromTriplets(n, diag)
	wide := etree.NewBlockPattern(a, etree.FromStarts([]int{0, n}, n))
	if _, err := NewScatter(a, ordering.Identity(n), wide); !errors.Is(err, ErrSlabTooLarge) {
		t.Fatalf("NewScatter on a %d-scalar layout = %v, want ErrSlabTooLarge", wide.FactorSize(true), err)
	}
}

// BenchmarkDiagInverse is one diagonal inverse of a symmetric LU —
// L⁻ᵀ·D⁻¹·L⁻¹, the routine every symmetric-plan supernode runs once per
// inversion — at the widths the benchmark's DG2D supernodes reach (20, and
// MaxWidth 48), real and complex. Tracked by the bench gate.
func BenchmarkDiagInverse(b *testing.B) {
	for _, elem := range []dense.Elem{dense.Real, dense.Complex} {
		for _, w := range []int{20, 48} {
			b.Run(fmt.Sprintf("%s-%d", elem, w), func(b *testing.B) {
				g := sparse.Banded(w, w-1, 1) // one dense supernode
				bp := etree.NewBlockPattern(g.A, etree.FromStarts([]int{0, w}, w))
				lu, err := factorize(g.A, bp, elem, map[dense.Elem]complex128{dense.Real: 0, dense.Complex: complex(0, 0.3)}[elem])
				if err != nil || !lu.Symmetric {
					b.Fatalf("symmetric LU: %v, Symmetric = %v", err, lu != nil && lu.Symmetric)
				}
				inv := dense.NewMatrixElem(w, w, elem)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lu.DiagInverseTo(0, inv)
				}
			})
		}
	}
}

// BenchmarkRefactorize is the per-pole numeric factorization at the
// benchmark's DG2D shapes (warm_dg2d_p16 real, pexsi_z16_p16 complex), in
// place, from the caller's matrix through the analysis's scatter map: what a
// pole costs once the LU exists — lower-only for the generated, symmetric
// values, and through the general loop (the same values, one entry nudged by
// an ulp) for asymmetric users. Tracked by the bench gate.
func BenchmarkRefactorize(b *testing.B) {
	g := sparse.DG2D(16, 16, 4, 1)
	an := analyze(g, etree.Options{Relax: 4, MaxWidth: 48})
	sc := mustScatter(b, g.A, an.PermTotal, an.BP)
	for _, bc := range []struct {
		name string
		a    *sparse.CSC
		elem dense.Elem
		z    complex128
	}{
		{"real", g.A, dense.Real, 0}, {"complex", g.A, dense.Complex, complex(0, 0.3)},
		{"real-general", nudged(g.A), dense.Real, 0}, {"complex-general", nudged(g.A), dense.Complex, complex(0, 0.3)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			lu := New(an.BP, bc.elem)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lu.Refactorize(bc.a, 0, sc, bc.z); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
