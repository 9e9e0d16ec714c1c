package selinv

import (
	"testing"

	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

// blockDiag builds a block-diagonal matrix from independent generated
// blocks — its elimination tree is a forest, exercising the multi-root
// paths of the symbolic and numeric phases.
func blockDiag(gs ...*sparse.Generated) *sparse.Generated {
	n := 0
	var ts []sparse.Triplet
	for _, g := range gs {
		a := g.A
		for j := 0; j < a.N; j++ {
			for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
				ts = append(ts, sparse.Triplet{Row: n + a.RowIdx[k], Col: n + j, Val: a.Val[k]})
			}
		}
		n += a.N
	}
	return &sparse.Generated{A: sparse.FromTriplets(n, ts), Name: "blockdiag"}
}

func TestSelInvDisconnectedMatrix(t *testing.T) {
	g := blockDiag(sparse.Banded(8, 2, 1), sparse.Grid2D(3, 3, 2), sparse.Banded(5, 1, 3))
	an := etree.Analyze(g.A, ordering.Identity(g.A.N), etree.Options{MaxWidth: 4})
	// Forest: several supernodal roots.
	roots := 0
	for _, p := range an.BP.SnParent {
		if p == -1 {
			roots++
		}
	}
	if roots < 3 {
		t.Fatalf("expected >= 3 roots in the supernodal forest, got %d", roots)
	}
	lu, err := factor.Factorize(an.A, an.BP)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstDense(t, an, SelInv(lu), realOracle(t, an), 1e-8)
}

func TestSelInvSingleColumn(t *testing.T) {
	// 1x1 matrix: degenerate but legal.
	a := sparse.FromTriplets(1, []sparse.Triplet{{Row: 0, Col: 0, Val: 4}})
	an := etree.Analyze(a, ordering.Identity(1), etree.Options{})
	lu, err := factor.Factorize(an.A, an.BP)
	if err != nil {
		t.Fatal(err)
	}
	res := SelInv(lu)
	d := res.MustGet(0, 0)
	if diff := d.At(0, 0) - 0.25; diff > 1e-14 || diff < -1e-14 {
		t.Fatalf("(A⁻¹)₀₀ = %g, want 0.25", d.At(0, 0))
	}
}

func TestSelInvDiagonalMatrix(t *testing.T) {
	// Purely diagonal matrix: every supernode is a leaf; pass 2 reduces to
	// diagonal inversions only.
	var ts []sparse.Triplet
	for i := 0; i < 10; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: float64(i + 2)})
	}
	a := sparse.FromTriplets(10, ts)
	an := etree.Analyze(a, ordering.Identity(10), etree.Options{MaxWidth: 1})
	lu, err := factor.Factorize(an.A, an.BP)
	if err != nil {
		t.Fatal(err)
	}
	res := SelInv(lu)
	for i := 0; i < 10; i++ {
		want := 1 / float64(i+2)
		got := res.MustGet(an.BP.Part.SnodeOf[i], an.BP.Part.SnodeOf[i])
		if d := got.At(0, 0) - want; d > 1e-14 || d < -1e-14 {
			t.Fatalf("diag %d: got %g want %g", i, got.At(0, 0), want)
		}
	}
}

func TestSelInvDenseMatrixOneSupernode(t *testing.T) {
	// A fully dense matrix collapses to a single supernode; selected
	// inversion degenerates to a dense inverse.
	g := sparse.DG2D(2, 2, 3, 5) // 12x12 fully coupled
	an := etree.Analyze(g.A, ordering.Identity(g.A.N), etree.Options{})
	if an.BP.NumSnodes() != 1 {
		t.Fatalf("expected one supernode, got %d", an.BP.NumSnodes())
	}
	lu, err := factor.Factorize(an.A, an.BP)
	if err != nil {
		t.Fatal(err)
	}
	res := SelInv(lu)
	want, err := dense.Inverse(an.A.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	if d := res.MustGet(0, 0).MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("dense-case inverse differs by %g", d)
	}
}
