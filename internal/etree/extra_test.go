package etree

import (
	"runtime"
	"testing"

	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

func TestRelabelParentsIdentity(t *testing.T) {
	parent := []int{1, 2, -1}
	out := RelabelParents(parent, ordering.Identity(3))
	for i := range parent {
		if out[i] != parent[i] {
			t.Fatalf("identity relabel changed parent[%d]", i)
		}
	}
}

func TestRelabelParentsSwap(t *testing.T) {
	// Tree 0->2, 1->2, root 2; permutation reverses labels.
	parent := []int{2, 2, -1}
	perm := []int{2, 1, 0}
	out := RelabelParents(parent, perm)
	// New vertex 2 (old 0) has parent new 0 (old 2); new 0 is the root.
	if out[2] != 0 || out[1] != 0 || out[0] != -1 {
		t.Fatalf("relabel wrong: %v", out)
	}
}

func TestPostorderForest(t *testing.T) {
	// Two independent trees: 0->1 (root 1), 2->3 (root 3).
	parent := []int{1, -1, 3, -1}
	post := postorder(parent)
	if !ordering.IsPermutation(post) {
		t.Fatal("forest postorder invalid")
	}
	rel := RelabelParents(parent, post)
	for v, p := range rel {
		if p != -1 && p <= v {
			t.Fatalf("postordered forest parent[%d] = %d", v, p)
		}
	}
}

func TestColCountsMonotoneAlongSupernode(t *testing.T) {
	// Within a fundamental supernode, column counts decrease by exactly 1.
	g := sparse.DG2D(2, 3, 4, 1)
	an := Analyze(g.A, ordering.Identity(g.A.N), Options{})
	part := an.BP.Part
	for k := 0; k < part.NumSnodes(); k++ {
		lo, hi := part.Cols(k)
		for j := lo + 1; j < hi; j++ {
			if an.ColCount[j] > an.ColCount[j-1] {
				// Relaxed merges may break exact nesting; fundamental-only
				// analysis (Relax 0) must not.
				t.Fatalf("supernode %d: count[%d]=%d > count[%d]=%d under Relax=0",
					k, j, an.ColCount[j], j-1, an.ColCount[j-1])
			}
		}
	}
}

func TestRelaxedAmalgamationReducesSupernodeCount(t *testing.T) {
	g := sparse.Grid3D(5, 5, 5, 4)
	strict := Analyze(g.A, ordering.Identity(g.A.N), Options{Relax: 0})
	relaxed := Analyze(g.A, ordering.Identity(g.A.N), Options{Relax: 6})
	if relaxed.BP.NumSnodes() > strict.BP.NumSnodes() {
		t.Fatalf("relaxation increased supernode count: %d -> %d",
			strict.BP.NumSnodes(), relaxed.BP.NumSnodes())
	}
}

func TestFactorFlopsPositiveAndMonotone(t *testing.T) {
	small := Analyze(sparse.Grid2D(5, 5, 1).A, ordering.Identity(25), Options{})
	big := Analyze(sparse.Grid2D(10, 10, 1).A, ordering.Identity(100), Options{})
	fs, fb := small.BP.FactorFlops(), big.BP.FactorFlops()
	if fs <= 0 || fb <= fs {
		t.Fatalf("FactorFlops not sane: small=%d big=%d", fs, fb)
	}
}

func TestStructExcludesDiagonal(t *testing.T) {
	g := sparse.Grid2D(6, 6, 2)
	an := Analyze(g.A, ordering.Identity(g.A.N), Options{})
	for k := 0; k < an.BP.NumSnodes(); k++ {
		for _, i := range an.BP.Struct(k) {
			if i <= k {
				t.Fatalf("Struct(%d) contains non-strict block row %d", k, i)
			}
		}
	}
}

func TestHasBlockNegative(t *testing.T) {
	g := sparse.Banded(10, 1, 1)
	an := Analyze(g.A, ordering.Identity(10), Options{MaxWidth: 2})
	bp := an.BP
	ns := bp.NumSnodes()
	if ns < 4 {
		t.Skip("too few supernodes")
	}
	// A tridiagonal band: block (ns-1, 0) must be structurally zero.
	if bp.HasBlock(ns-1, 0) {
		t.Fatal("band matrix pattern claims a far-corner block")
	}
}

// TestAnalyzeAllocBudget holds the symbolic phase to its memory: Analyze on
// the cold upload's matrix (Grid2D 96², nested dissection on the graph, the
// library's Relax 4 and MaxWidth 48) and on a 3D stand-in (FE3D 12³×3,
// geometric nested dissection, the experiments' Relax 4 and MaxWidth 24).
// Beside its output — the permuted matrix, the tree, the counts and the
// block pattern — Analyze needs O(n) scratch. Measured 3.56 and 12.40 MB
// (9.27 and 40.49 MB with a scalar column pattern of L and a map per
// supernode); the budgets leave about a fifth on top.
func TestAnalyzeAllocBudget(t *testing.T) {
	grid, fe := sparse.Grid2D(96, 96, 1), sparse.FE3D(12, 12, 12, 3, 1)
	for _, c := range []struct {
		g        *sparse.Generated
		geom     *sparse.Geometry
		opt      Options
		budgetMB float64
	}{
		{grid, nil, Options{Relax: 4, MaxWidth: 48}, 4.3},
		{fe, fe.Geom, Options{Relax: 4, MaxWidth: 24}, 15},
	} {
		perm := ordering.Compute(ordering.NestedDissection, c.g.A, c.geom)
		ap := c.g.A.Permute(perm)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Analyze(ap, perm, c.opt)
		runtime.ReadMemStats(&after)
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > c.budgetMB {
			t.Errorf("%s: Analyze allocates %.2f MB, budget %.1f", c.g.Name, mb, c.budgetMB)
		} else {
			t.Logf("%s: Analyze allocates %.2f MB", c.g.Name, mb)
		}
	}
}
