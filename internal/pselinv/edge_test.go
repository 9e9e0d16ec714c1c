package pselinv

import (
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/selinv"
	"pselinv/internal/sparse"
)

// TestParallelDisconnectedMatrix drives the engine over a forest
// elimination tree (multiple independent components): several leaf
// supernodes and multiple roots finalize concurrently.
func TestParallelDisconnectedMatrix(t *testing.T) {
	var ts []sparse.Triplet
	n := 0
	for _, g := range []*sparse.Generated{
		sparse.Banded(9, 2, 1), sparse.Grid2D(4, 3, 2), sparse.Banded(6, 1, 3),
	} {
		a := g.A
		for j := 0; j < a.N; j++ {
			for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
				ts = append(ts, sparse.Triplet{Row: n + a.RowIdx[k], Col: n + j, Val: a.Val[k]})
			}
		}
		n += a.N
	}
	a := sparse.FromTriplets(n, ts)
	an := etree.Analyze(a, ordering.Identity(n), etree.Options{MaxWidth: 3})
	lu, err := factor.Factorize(an.A, an.BP)
	if err != nil {
		t.Fatal(err)
	}
	ref := selinv.SelInv(lu)
	runAndCompare(t, an, lu, ref, procgrid.New(3, 3), core.ShiftedBinaryTree, 4)
}

// TestParallelDiagonalMatrix: all supernodes are leaves — the engine's
// pass 2 consists purely of local diagonal inversions, no messages.
func TestParallelDiagonalMatrix(t *testing.T) {
	var ts []sparse.Triplet
	for i := 0; i < 12; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: float64(i + 1)})
	}
	a := sparse.FromTriplets(12, ts)
	an := etree.Analyze(a, ordering.Identity(12), etree.Options{MaxWidth: 1})
	lu, err := factor.Factorize(an.A, an.BP)
	if err != nil {
		t.Fatal(err)
	}
	ref := selinv.SelInv(lu)
	res := runAndCompare(t, an, lu, ref, procgrid.New(2, 2), core.FlatTree, 1)
	for r := 0; r < res.World.P; r++ {
		if res.World.TotalSent(r) != 0 {
			t.Fatalf("diagonal matrix should need no communication; rank %d sent %d bytes",
				r, res.World.TotalSent(r))
		}
	}
}

// TestParallelTallThinGrids covers degenerate grid shapes (1×P, P×1) where
// row or column groups collapse to single ranks.
func TestParallelTallThinGrids(t *testing.T) {
	g := sparse.Grid2D(6, 6, 8)
	an, lu, ref := prep(t, g, etree.Options{MaxWidth: 5})
	for _, dims := range [][2]int{{1, 7}, {7, 1}, {1, 2}, {2, 1}} {
		runAndCompare(t, an, lu, ref, procgrid.New(dims[0], dims[1]), core.ShiftedBinaryTree, 2)
	}
}

// TestParallelMoreRanksThanBlocks: the grid has more ranks than the matrix
// has supernodes; many ranks own nothing and must still terminate.
func TestParallelMoreRanksThanBlocks(t *testing.T) {
	g := sparse.Banded(12, 2, 5)
	an, lu, ref := prep(t, g, etree.Options{MaxWidth: 4})
	if an.BP.NumSnodes() >= 36 {
		t.Skip("matrix produced too many supernodes for this test")
	}
	runAndCompare(t, an, lu, ref, procgrid.New(6, 6), core.BinaryTree, 3)
}
