package sparse

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"pselinv/internal/dense"
)

func TestFromTripletsSumsDuplicates(t *testing.T) {
	a := FromTriplets(3, []Triplet{
		{0, 0, 1}, {0, 0, 2}, {2, 1, 3}, {1, 2, 4},
	})
	if a.At(0, 0) != 3 {
		t.Fatalf("duplicate not summed: %v", a.At(0, 0))
	}
	if a.At(2, 1) != 3 || a.At(1, 2) != 4 || a.At(1, 1) != 0 {
		t.Fatalf("entries wrong")
	}
	if a.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", a.NNZ())
	}
}

func TestFromTripletsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromTriplets(2, []Triplet{{2, 0, 1}})
}

func TestRowIndicesSorted(t *testing.T) {
	g := Grid2D(5, 4, 1)
	a := g.A
	for j := 0; j < a.N; j++ {
		for k := a.ColPtr[j] + 1; k < a.ColPtr[j+1]; k++ {
			if a.RowIdx[k-1] >= a.RowIdx[k] {
				t.Fatalf("column %d not sorted", j)
			}
		}
	}
}

func TestGeneratorsSymmetric(t *testing.T) {
	for _, g := range []*Generated{
		Grid2D(6, 5, 1), Grid3D(4, 3, 3, 2), DG2D(4, 4, 3, 3),
		FE3D(3, 3, 3, 2, 4), Banded(20, 3, 5), RandomSym(40, 5, 6),
	} {
		if !g.A.IsStructurallySymmetric() {
			t.Errorf("%s: pattern not symmetric", g.Name)
		}
		if !g.A.IsSymmetric(0) {
			t.Errorf("%s: values not symmetric", g.Name)
		}
	}
}

func TestGeneratorsDiagonallyDominant(t *testing.T) {
	for _, g := range []*Generated{Grid2D(6, 6, 2), DG2D(3, 3, 4, 2), RandomSym(50, 6, 3)} {
		a := g.A
		d := a.ToDense()
		for i := 0; i < a.N; i++ {
			off := 0.0
			for j := 0; j < a.N; j++ {
				if i != j {
					off += math.Abs(d.At(i, j))
				}
			}
			if d.At(i, i) <= off {
				t.Fatalf("%s: row %d not diagonally dominant (%g <= %g)", g.Name, i, d.At(i, i), off)
			}
		}
	}
}

func TestGrid2DStructure(t *testing.T) {
	g := Grid2D(3, 3, 1)
	a := g.A
	if a.N != 9 {
		t.Fatalf("n = %d", a.N)
	}
	// Interior node 4 (center) couples to 4 neighbors + itself.
	cnt := a.ColPtr[5] - a.ColPtr[4]
	if cnt != 5 {
		t.Fatalf("center column nnz = %d, want 5", cnt)
	}
	// Corner node 0 couples to 2 neighbors + itself.
	if c := a.ColPtr[1] - a.ColPtr[0]; c != 3 {
		t.Fatalf("corner column nnz = %d, want 3", c)
	}
}

func TestDG2DBlockDensity(t *testing.T) {
	b := 3
	g := DG2D(2, 2, b, 1)
	a := g.A
	if a.N != 4*b {
		t.Fatalf("n = %d", a.N)
	}
	// All four elements are mutually adjacent in a 2x2 grid with box
	// stencil, so the matrix is fully dense in blocks.
	if a.NNZ() != a.N*a.N {
		t.Fatalf("expected dense block coupling: nnz=%d n²=%d", a.NNZ(), a.N*a.N)
	}
}

func TestPermute(t *testing.T) {
	g := RandomSym(12, 3, 9)
	a := g.A
	perm := rand.New(rand.NewSource(1)).Perm(a.N)
	p := a.Permute(perm)
	ad, pd := a.ToDense(), p.ToDense()
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			if ad.At(i, j) != pd.At(perm[i], perm[j]) {
				t.Fatalf("permute wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := RandomSym(25, 4, 11)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g.A); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.A.ToDense().MaxAbsDiff(b.ToDense()) != 0 {
		t.Fatal("round trip changed the matrix")
	}
}

func TestMatrixMarketSymmetricRead(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 4
1 1 2.0
2 1 -1.0
2 2 2.0
3 3 1.0
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Fatal("symmetric mirror missing")
	}
	// The declared count is of file lines, not of mirrored entries.
	if a.At(2, 2) != 1 || a.NNZ() != 5 {
		t.Fatalf("last declared entry not read: a(3,3)=%g nnz=%d", a.At(2, 2), a.NNZ())
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n1 2 3 4",
		"%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 5",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 5\n",
	} {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestStandinsCharacter(t *testing.T) {
	gs := Standins(1)
	if len(gs) != 6 {
		t.Fatalf("want 6 stand-ins, got %d", len(gs))
	}
	names := map[string]bool{}
	for _, g := range gs {
		names[g.Name] = true
		if !g.A.IsSymmetric(0) {
			t.Errorf("%s not symmetric", g.Name)
		}
		if g.A.N < 500 {
			t.Errorf("%s too small (n=%d) to be interesting", g.Name, g.A.N)
		}
	}
	if !names["audikw_1_standin"] || !names["DG_PNF14000_standin"] {
		t.Fatal("expected named stand-ins missing")
	}
	// The DG (2D dense) stand-in must be denser than the 3D FE stand-in,
	// matching the paper's density contrast between DG_PNF14000 and audikw_1.
	var dg, fe *Generated
	for _, g := range gs {
		switch g.Name {
		case "DG_PNF14000_standin":
			dg = g
		case "Flan_1565_standin":
			fe = g
		}
	}
	if dg.A.Density() <= fe.A.Density() {
		t.Errorf("DG stand-in (%.4g) should be denser than 3D grid stand-in (%.4g)",
			dg.A.Density(), fe.A.Density())
	}
}

// Property: Permute preserves symmetry.
func TestQuickPermutePreservesSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := RandomSym(10+int(r.Int31n(20)), 3, seed)
		perm := r.Perm(g.A.N)
		return g.A.Permute(perm).IsSymmetric(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestToDenseMatchesAt(t *testing.T) {
	g := Banded(15, 2, 1)
	d := g.A.ToDense()
	want := dense.NewMatrix(g.A.N, g.A.N)
	for i := 0; i < g.A.N; i++ {
		for j := 0; j < g.A.N; j++ {
			want.Set(i, j, g.A.At(i, j))
		}
	}
	if d.MaxAbsDiff(want) != 0 {
		t.Fatal("ToDense inconsistent with At")
	}
}

func BenchmarkGenerateAudikwStandin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		AudikwStandin(int64(i))
	}
}

// ---- Reference implementations -------------------------------------------
// The sort-based assembly and permutation and the transpose-based symmetry
// checks the counting-pass versions replaced, kept as their oracles. The
// sort is the stable one so that three or more duplicates of an entry are
// summed in a defined (input) order.

func refFromTriplets(n int, ts []Triplet) *CSC {
	ts = append([]Triplet(nil), ts...)
	sort.SliceStable(ts, func(i, j int) bool {
		if ts[i].Col != ts[j].Col {
			return ts[i].Col < ts[j].Col
		}
		return ts[i].Row < ts[j].Row
	})
	a := &CSC{N: n, ColPtr: make([]int, n+1)}
	for k := 0; k < len(ts); {
		j, r, v := ts[k].Col, ts[k].Row, ts[k].Val
		k++
		for k < len(ts) && ts[k].Col == j && ts[k].Row == r {
			v += ts[k].Val
			k++
		}
		a.RowIdx = append(a.RowIdx, r)
		a.Val = append(a.Val, v)
		a.ColPtr[j+1]++
	}
	for j := 0; j < n; j++ {
		a.ColPtr[j+1] += a.ColPtr[j]
	}
	return a
}

func refPermute(a *CSC, perm []int) *CSC {
	ts := make([]Triplet, 0, a.NNZ())
	for j := 0; j < a.N; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			ts = append(ts, Triplet{Row: perm[a.RowIdx[k]], Col: perm[j], Val: a.Val[k]})
		}
	}
	return refFromTriplets(a.N, ts)
}

func refTranspose(a *CSC) *CSC {
	n := a.N
	t := &CSC{N: n, ColPtr: make([]int, n+1),
		RowIdx: make([]int, a.NNZ()), Val: make([]float64, a.NNZ())}
	for _, r := range a.RowIdx {
		t.ColPtr[r+1]++
	}
	for j := 0; j < n; j++ {
		t.ColPtr[j+1] += t.ColPtr[j]
	}
	next := append([]int(nil), t.ColPtr...)
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			t.RowIdx[next[i]] = j
			t.Val[next[i]] = a.Val[k]
			next[i]++
		}
	}
	return t
}

func refIsStructurallySymmetric(a *CSC) bool {
	t := refTranspose(a)
	return slices.Equal(a.ColPtr, t.ColPtr) && slices.Equal(a.RowIdx, t.RowIdx)
}

func refIsSymmetric(a *CSC, tol float64) bool {
	if !refIsStructurallySymmetric(a) {
		return false
	}
	t := refTranspose(a)
	for i := range a.Val {
		if math.Abs(a.Val[i]-t.Val[i]) > tol {
			return false
		}
	}
	return true
}

// sameCSC compares array for array, values by bit pattern.
func sameCSC(t *testing.T, what string, got, want *CSC) {
	t.Helper()
	if got.N != want.N || !slices.Equal(got.ColPtr, want.ColPtr) ||
		len(got.RowIdx) != len(want.RowIdx) || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: shape differs: n %d vs %d, colptr %v vs %v", what, got.N, want.N, got.ColPtr, want.ColPtr)
	}
	for k := range want.RowIdx {
		if got.RowIdx[k] != want.RowIdx[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: entry %d is (%d, %v), want (%d, %v)", what, k,
				got.RowIdx[k], got.Val[k], want.RowIdx[k], want.Val[k])
		}
	}
}

// randomTriplets draws cnt entries of an n×n matrix, duplicates included;
// about a third of the columns are never used so empty columns occur.
func randomTriplets(rng *rand.Rand, n, cnt int) []Triplet {
	if n == 0 {
		return nil
	}
	ts := make([]Triplet, cnt)
	for k := range ts {
		j := rng.Intn(n)
		if j%3 == 1 {
			j--
		}
		ts[k] = Triplet{Row: rng.Intn(n), Col: j, Val: rng.NormFloat64()}
	}
	return ts
}

func TestFromTripletsMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 5, 17, 40} {
		for _, cnt := range []int{0, 1, n, 4 * n, n * n * 2} {
			ts := randomTriplets(rng, n, cnt)
			in := slices.Clone(ts)
			sameCSC(t, fmt.Sprintf("n=%d cnt=%d", n, cnt), FromTriplets(n, ts), refFromTriplets(n, ts))
			if !slices.Equal(ts, in) {
				t.Fatalf("n=%d cnt=%d: FromTriplets reordered its input", n, cnt)
			}
		}
	}
}

// TestPermuteMatchesSortOracle holds Permute to a sort-based oracle, and its
// permute of the pattern alone (nil Val) to the pattern of the full one.
func TestPermuteMatchesSortOracle(t *testing.T) {
	check := func(label string, a *CSC, perm []int) {
		t.Helper()
		got := a.Permute(perm)
		sameCSC(t, label, got, refPermute(a, perm))
		pat := (&CSC{N: a.N, ColPtr: a.ColPtr, RowIdx: a.RowIdx}).Permute(perm)
		if pat.Val != nil || !slices.Equal(pat.ColPtr, got.ColPtr) || !slices.Equal(pat.RowIdx, got.RowIdx) {
			t.Fatalf("%s: the pattern-only permute is not the full one's pattern, or has values", label)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 5, 17, 40} {
		a := refFromTriplets(n, randomTriplets(rng, n, 3*n))
		identity, reversal := make([]int, n), make([]int, n)
		for i := range identity {
			identity[i], reversal[i] = i, n-1-i
		}
		for name, perm := range map[string][]int{
			"identity": identity, "reversal": reversal, "random": rng.Perm(n),
		} {
			check(fmt.Sprintf("n=%d %s", n, name), a, perm)
		}
	}
	g := DG2D(5, 4, 3, 7)
	perm := rng.Perm(g.A.N)
	check(g.Name, g.A, perm)
}

func TestSymmetryChecksMatchTransposeOracle(t *testing.T) {
	check := func(what string, a *CSC, tols ...float64) {
		t.Helper()
		if got, want := a.IsStructurallySymmetric(), refIsStructurallySymmetric(a); got != want {
			t.Errorf("%s: IsStructurallySymmetric = %v, oracle %v", what, got, want)
		}
		// Mirrors: nil exactly when the pattern is not symmetric, else the
		// position of each entry's transpose.
		mirror := a.Mirrors()
		if (mirror != nil) != refIsStructurallySymmetric(a) {
			t.Errorf("%s: Mirrors nil = %v", what, mirror == nil)
		}
		for j := 0; mirror != nil && j < a.N; j++ {
			for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
				p := int(mirror[k])
				if a.RowIdx[p] != j || p < a.ColPtr[a.RowIdx[k]] || p >= a.ColPtr[a.RowIdx[k]+1] {
					t.Fatalf("%s: Mirrors()[%d] = %d is not entry (%d, %d)", what, k, p, j, a.RowIdx[k])
				}
			}
		}
		for _, tol := range append(tols, 0, 1e-14) {
			if got, want := a.IsSymmetric(tol), refIsSymmetric(a, tol); got != want {
				t.Errorf("%s: IsSymmetric(%g) = %v, oracle %v", what, tol, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 5, 17, 40} {
		check(fmt.Sprintf("random n=%d", n), refFromTriplets(n, randomTriplets(rng, n, 2*n)))
		check(fmt.Sprintf("randsym n=%d", n), RandomSym(n+2, 3, int64(n)).A)
		check(fmt.Sprintf("randasym n=%d", n), RandomAsym(n+2, 3, int64(n)).A)
	}

	// A symmetric pattern with exactly one entry dropped, on either side of
	// the diagonal and in the first, a middle and the last column.
	sym := Banded(12, 3, 4).A
	if !sym.IsStructurallySymmetric() {
		t.Fatal("banded pattern should be symmetric")
	}
	for _, drop := range [][2]int{{2, 0}, {0, 2}, {7, 5}, {5, 7}, {11, 9}, {9, 11}} {
		var ts []Triplet
		for j := 0; j < sym.N; j++ {
			for k := sym.ColPtr[j]; k < sym.ColPtr[j+1]; k++ {
				if i := sym.RowIdx[k]; i != drop[0] || j != drop[1] {
					ts = append(ts, Triplet{Row: i, Col: j, Val: sym.Val[k]})
				}
			}
		}
		a := FromTriplets(sym.N, ts)
		check(fmt.Sprintf("dropped %v", drop), a)
		if a.IsStructurallySymmetric() || a.IsSymmetric(math.Inf(1)) {
			t.Errorf("dropped %v: still reported symmetric", drop)
		}
	}

	// Values apart by exactly tol are symmetric; one ulp more is not.
	const tol = 1.0 / 1024
	for _, c := range []struct {
		upper float64
		want  bool
	}{
		{1 + tol, true},
		{math.Nextafter(1+tol, 2), false},
	} {
		a := FromTriplets(3, []Triplet{{0, 0, 4}, {1, 1, 4}, {2, 2, 4}, {2, 0, 1}, {0, 2, c.upper}})
		check(fmt.Sprintf("upper=%v", c.upper), a, tol)
		if got := a.IsSymmetric(tol); got != c.want {
			t.Errorf("upper=%v: IsSymmetric(tol) = %v, want %v", c.upper, got, c.want)
		}
	}
}

// refWriteMatrixMarket is the fmt-based writer WriteMatrixMarket replaced.
func refWriteMatrixMarket(w io.Writer, a *CSC) {
	fmt.Fprintf(w, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", a.N, a.N, a.NNZ())
	for j := 0; j < a.N; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			fmt.Fprintf(w, "%d %d %.17g\n", a.RowIdx[k]+1, j+1, a.Val[k])
		}
	}
}

func TestWriteMatrixMarketBytesUnchanged(t *testing.T) {
	a := DG2D(5, 5, 3, 9).A
	// Exercise the exponent and sign forms of %.17g too.
	copy(a.Val, []float64{1e-300, -2.5e21, 123456789012345678, 0.1, -0.0, 5e-324, 1e16, 1e17})
	var got, want bytes.Buffer
	if err := WriteMatrixMarket(&got, a); err != nil {
		t.Fatal(err)
	}
	refWriteMatrixMarket(&want, a)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteMatrixMarket output differs from the fmt formatter's")
	}
	b, err := ReadMatrixMarket(&got)
	if err != nil {
		t.Fatal(err)
	}
	sameCSC(t, "round trip", b, a)
}

func TestReadMatrixMarketRejects(t *testing.T) {
	const hdr = "%%MatrixMarket matrix coordinate "
	for _, c := range []struct {
		name, in, wantErr string
	}{
		{"complex field", hdr + "complex general\n1 1 1\n1 1 2.0 3.0\n", `"complex"`},
		{"pattern field", hdr + "pattern general\n1 1 1\n1 1\n", `"pattern"`},
		{"skew-symmetric", hdr + "real skew-symmetric\n2 2 3\n1 1 1\n2 2 1\n2 1 3\n", `"skew-symmetric"`},
		{"hermitian", hdr + "real hermitian\n1 1 1\n1 1 2.0\n", `"hermitian"`},
		{"missing symmetry", hdr + "real\n1 1 1\n1 1 2.0\n", "header"},
		{"negative dimension", hdr + "real general\n-1 -1 0\n", "not positive"},
		{"zero dimension", hdr + "real general\n0 0 0\n", "not positive"},
		{"negative count", hdr + "real general\n2 2 -1\n", "entry count"},
		{"count above n²", hdr + "real general\n2 2 5\n1 1 1\n", "entry count"},
		{"overflowing dimension", hdr + "real general\n99999999999999999999 99999999999999999999 1\n1 1 1\n", "out of range"},
		{"declared count the body cannot hold", hdr + "real general\n3000000 3000000 4000000000000\n", "expected 4000000000000 entries"},
		{"declared dimension the body cannot fill", hdr + "real general\n1000000000000 1000000000000 1\n1 1 1\n", "structurally singular"},
		{"NaN", hdr + "real general\n1 1 1\n1 1 NaN\n", "non-finite"},
		{"Inf", hdr + "real general\n1 1 1\n1 1 -inf\n", "non-finite"},
		{"complex data under a real header", hdr + "real general\n1 1 1\n1 1 2.0 3.0\n", "bad entry line"},
	} {
		a, err := ReadMatrixMarket(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: parsed to %v, want an error", c.name, a)
		} else if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestReadMatrixMarketAcceptsIntegerField(t *testing.T) {
	a, err := ReadMatrixMarket(strings.NewReader(
		"%%MatrixMarket matrix coordinate integer symmetric\n2 2 3\n1 1 4\n2 1 -1\n2 2 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	sameCSC(t, "integer symmetric", a, refFromTriplets(2, []Triplet{{0, 0, 4}, {1, 0, -1}, {0, 1, -1}, {1, 1, 5}}))
}

// wellFormed reports the first violated CSC invariant.
func wellFormed(a *CSC) error {
	if a.N < 0 || len(a.ColPtr) != a.N+1 || a.ColPtr[0] != 0 || a.ColPtr[a.N] != len(a.RowIdx) || len(a.Val) != len(a.RowIdx) {
		return fmt.Errorf("bad shape: n=%d len(colptr)=%d nnz=%d len(val)=%d", a.N, len(a.ColPtr), len(a.RowIdx), len(a.Val))
	}
	for j := 0; j < a.N; j++ {
		if a.ColPtr[j] > a.ColPtr[j+1] {
			return fmt.Errorf("colptr decreases at column %d", j)
		}
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if i := a.RowIdx[k]; i < 0 || i >= a.N || (k > a.ColPtr[j] && a.RowIdx[k-1] >= i) {
				return fmt.Errorf("column %d: row %d at position %d out of range or out of order", j, i, k)
			}
		}
	}
	return nil
}

func FuzzReadMatrixMarket(f *testing.F) {
	var mm bytes.Buffer
	if err := WriteMatrixMarket(&mm, Grid2D(3, 2, 1).A); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		mm.String(),
		"%%MatrixMarket matrix coordinate real symmetric\n% c\n3 3 4\n1 1 2.0\n2 1 -1.0\n\n2 2 2.0\n3 3 1e0\n",
		"%%MatrixMarket matrix coordinate integer general\n2 2 3\n1 1 1\n1 1 1\n2 2 7\n",
		// the two parent bugs: a count the body cannot hold, dropped imaginary parts
		"%%MatrixMarket matrix coordinate real general\n3000000 3000000 4000000000000\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 2.0 3.0\n",
		"%%MatrixMarket matrix coordinate real general\n-1 -1 -1\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 NaN\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		a, err := ReadMatrixMarket(bytes.NewReader(in))
		if err != nil {
			return
		}
		if err := wellFormed(a); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := WriteMatrixMarket(&out, a); err != nil {
			t.Fatal(err)
		}
		b, err := ReadMatrixMarket(&out)
		if err != nil {
			t.Fatalf("re-reading the written matrix: %v", err)
		}
		sameCSC(t, "round trip", b, a)
	})
}
