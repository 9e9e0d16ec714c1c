package etree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

func TestParentsChain(t *testing.T) {
	// Tridiagonal matrix: etree is a path 0->1->...->n-1.
	g := sparse.Banded(8, 1, 1)
	parent := parents(g.A, nil)
	for j := 0; j < 7; j++ {
		if parent[j] != j+1 {
			t.Fatalf("parent[%d] = %d, want %d", j, parent[j], j+1)
		}
	}
	if parent[7] != -1 {
		t.Fatalf("root parent = %d", parent[7])
	}
}

func TestParentsArrowhead(t *testing.T) {
	// Arrowhead: all columns couple only to the last => every parent is n-1.
	n := 6
	var ts []sparse.Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 4})
	}
	for i := 0; i < n-1; i++ {
		ts = append(ts, sparse.Triplet{Row: n - 1, Col: i, Val: -1},
			sparse.Triplet{Row: i, Col: n - 1, Val: -1})
	}
	a := sparse.FromTriplets(n, ts)
	parent := parents(a, nil)
	for j := 0; j < n-1; j++ {
		if parent[j] != n-1 {
			t.Fatalf("parent[%d] = %d, want %d", j, parent[j], n-1)
		}
	}
}

func TestParentsAlwaysGreater(t *testing.T) {
	g := sparse.RandomSym(50, 5, 2)
	for j, p := range parents(g.A, nil) {
		if p != -1 && p <= j {
			t.Fatalf("parent[%d] = %d not greater than child", j, p)
		}
	}
}

func TestPostorderValid(t *testing.T) {
	g := sparse.Grid2D(6, 5, 1)
	parent := parents(g.A, nil)
	post := postorder(parent)
	if !ordering.IsPermutation(post) {
		t.Fatal("postorder not a permutation")
	}
	// In a postorder, every vertex's new label exceeds all its descendants'.
	rel := RelabelParents(parent, post)
	for v, p := range rel {
		if p != -1 && p <= v {
			t.Fatalf("postordered parent[%d] = %d not greater", v, p)
		}
	}
}

func TestPostorderSubtreesContiguous(t *testing.T) {
	g := sparse.Grid2D(5, 5, 3)
	parent := parents(g.A, nil)
	post := postorder(parent)
	rel := RelabelParents(parent, post)
	n := len(rel)
	// Compute subtree sizes; in a postorder, the descendants of v are
	// exactly [v-size(v)+1, v].
	size := make([]int, n)
	for v := 0; v < n; v++ {
		size[v] = 1
	}
	for v := 0; v < n; v++ {
		if rel[v] != -1 {
			size[rel[v]] += size[v]
		}
	}
	for v := 0; v < n; v++ {
		if rel[v] != -1 {
			if v < rel[v]-size[rel[v]]+1 {
				t.Fatalf("vertex %d outside its parent's contiguous range", v)
			}
		}
	}
}

func TestColPatternsMatchDenseElimination(t *testing.T) {
	g := sparse.RandomSym(25, 3, 7)
	a := g.A
	parent := parents(a, nil)
	post := postorder(parent)
	ap := a.Permute(post)
	parent = parents(ap, nil)
	pat := colPatterns(ap, parent)
	// Reference: dense symbolic right-looking elimination.
	n := ap.N
	filled := make([][]bool, n)
	for i := range filled {
		filled[i] = make([]bool, n)
	}
	for j := 0; j < n; j++ {
		for k := ap.ColPtr[j]; k < ap.ColPtr[j+1]; k++ {
			filled[ap.RowIdx[k]][j] = true
		}
	}
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			if !filled[i][k] {
				continue
			}
			for j := k + 1; j <= i; j++ {
				if filled[j][k] {
					filled[i][j] = true
					filled[j][i] = true
				}
			}
		}
	}
	for j := 0; j < n; j++ {
		want := []int{}
		for i := j; i < n; i++ {
			if i == j || filled[i][j] {
				want = append(want, i)
			}
		}
		got := pat[j]
		if len(got) != len(want) {
			t.Fatalf("col %d: pattern size %d, want %d", j, len(got), len(want))
		}
		for x := range got {
			if got[x] != want[x] {
				t.Fatalf("col %d: pattern %v, want %v", j, got, want)
			}
		}
	}
}

func TestSupernodesPartitionValid(t *testing.T) {
	g := sparse.Grid2D(8, 8, 1)
	an := Analyze(g.A, ordering.Identity(g.A.N), Options{})
	part := an.BP.Part
	if part.Start[0] != 0 || part.Start[part.NumSnodes()] != g.A.N {
		t.Fatal("partition does not cover all columns")
	}
	for k := 0; k < part.NumSnodes(); k++ {
		lo, hi := part.Cols(k)
		if hi <= lo {
			t.Fatal("empty supernode")
		}
		for j := lo; j < hi; j++ {
			if part.SnodeOf[j] != k {
				t.Fatal("SnodeOf inconsistent")
			}
		}
	}
}

func TestSupernodesMergeDenseBlock(t *testing.T) {
	// A fully dense matrix is a single fundamental supernode.
	g := sparse.DG2D(1, 2, 4, 1) // two elements fully coupled: 8x8 dense
	an := Analyze(g.A, ordering.Identity(g.A.N), Options{})
	if an.BP.Part.NumSnodes() != 1 {
		t.Fatalf("dense matrix split into %d supernodes, want 1", an.BP.Part.NumSnodes())
	}
}

func TestSupernodesMaxWidth(t *testing.T) {
	g := sparse.DG2D(1, 2, 4, 1)
	an := Analyze(g.A, ordering.Identity(g.A.N), Options{MaxWidth: 3})
	part := an.BP.Part
	for k := 0; k < part.NumSnodes(); k++ {
		if part.Width(k) > 3 {
			t.Fatalf("supernode %d wider than cap: %d", k, part.Width(k))
		}
	}
}

func TestBlockPatternCoversMatrix(t *testing.T) {
	g := sparse.Grid2D(7, 7, 2)
	an := Analyze(g.A, ordering.Identity(g.A.N), Options{})
	bp, ap, part := an.BP, an.A, an.BP.Part
	for j := 0; j < ap.N; j++ {
		kj := part.SnodeOf[j]
		for p := ap.ColPtr[j]; p < ap.ColPtr[j+1]; p++ {
			ki := part.SnodeOf[ap.RowIdx[p]]
			lo, hi := ki, kj
			if lo < hi {
				lo, hi = hi, lo
			}
			if !bp.HasBlock(lo, hi) {
				t.Fatalf("matrix entry (%d,%d) not covered by block pattern", ap.RowIdx[p], j)
			}
		}
	}
}

func TestBlockPatternClosed(t *testing.T) {
	for _, g := range []*sparse.Generated{
		sparse.Grid2D(9, 8, 1), sparse.Grid3D(4, 4, 4, 2),
		sparse.RandomSym(80, 5, 3), sparse.DG2D(4, 4, 3, 4),
	} {
		an := Analyze(g.A, ordering.Identity(g.A.N), Options{Relax: 4, MaxWidth: 16})
		if err := an.BP.CheckClosure(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestBlockPatternDiagonalFirst(t *testing.T) {
	g := sparse.Grid2D(6, 6, 1)
	an := Analyze(g.A, ordering.Identity(g.A.N), Options{})
	for k := 0; k < an.BP.NumSnodes(); k++ {
		if an.BP.RowsOf[k][0] != k {
			t.Fatalf("supernode %d: diagonal block not first", k)
		}
	}
}

func TestSnParentIsTree(t *testing.T) {
	g := sparse.Grid2D(8, 8, 4)
	an := Analyze(g.A, ordering.Identity(g.A.N), Options{})
	for k, p := range an.BP.SnParent {
		if p != -1 && p <= k {
			t.Fatalf("supernodal parent[%d] = %d", k, p)
		}
	}
}

func TestAnalyzeWithFillOrdering(t *testing.T) {
	g := sparse.Grid2D(10, 10, 5)
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	an := Analyze(g.A.Permute(perm), perm, Options{Relax: 2, MaxWidth: 24})
	if !ordering.IsPermutation(an.PermTotal) {
		t.Fatal("PermTotal not a permutation")
	}
	// PermTotal applied to the original matrix must reproduce an.A.
	if g.A.Permute(an.PermTotal).ToDense().MaxAbsDiff(an.A.ToDense()) != 0 {
		t.Fatal("PermTotal does not reproduce the analyzed matrix")
	}
	if err := an.BP.CheckClosure(); err != nil {
		t.Fatal(err)
	}
}

func TestNNZCounts(t *testing.T) {
	g := sparse.Banded(10, 1, 1)
	an := Analyze(g.A, ordering.Identity(g.A.N), Options{})
	bp := an.BP
	if bp.NNZBlocks() < bp.NumSnodes() {
		t.Fatal("NNZBlocks must count at least the diagonal blocks")
	}
	if bp.NNZScalars() < int64(g.A.N) {
		t.Fatal("NNZScalars must be at least n")
	}
}

// Property: analysis invariants hold on random symmetric matrices.
func TestQuickAnalyzeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := sparse.RandomSym(20+int(r.Int31n(40)), 2+int(r.Int31n(4)), seed)
		an := Analyze(g.A, ordering.Identity(g.A.N), Options{Relax: int(r.Int31n(3)), MaxWidth: 8})
		if !ordering.IsPermutation(an.PermTotal) {
			return false
		}
		if an.BP.CheckClosure() != nil {
			return false
		}
		for k, p := range an.BP.SnParent {
			if p != -1 && p <= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFromStartsValidation(t *testing.T) {
	for _, bad := range [][]int{{1, 5}, {0, 3}, {0, 2, 2, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for starts %v", bad)
				}
			}()
			FromStarts(bad, 5)
		}()
	}
}

func BenchmarkAnalyzeAudikwStandin(b *testing.B) {
	g := sparse.AudikwStandin(1)
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	ap := g.A.Permute(perm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(ap, perm, Options{Relax: 4, MaxWidth: 48})
	}
}

// CheckClosure verifies the selected-inversion invariant: for every K and
// every pair I <= J in Struct(K), block (J, I) is present. Returns an error
// naming the first violation. Used by tests and as a cheap sanity check.
func (bp *BlockPattern) CheckClosure() error {
	for k := 0; k < bp.NumSnodes(); k++ {
		c := bp.Struct(k)
		for x := 0; x < len(c); x++ {
			for y := x; y < len(c); y++ {
				if !bp.HasBlock(c[y], c[x]) {
					return fmt.Errorf("etree: closure violated: K=%d needs block (%d,%d)", k, c[y], c[x])
				}
			}
		}
	}
	return nil
}

// RelabelParents rewrites a parent array under a vertex permutation
// old->new.
func RelabelParents(parent, perm []int) []int {
	out := make([]int, len(parent))
	for v, p := range parent {
		if p < 0 {
			out[perm[v]] = -1
		} else {
			out[perm[v]] = perm[p]
		}
	}
	return out
}
