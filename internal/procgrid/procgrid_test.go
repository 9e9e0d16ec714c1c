package procgrid

import (
	"testing"
	"testing/quick"
)

func TestRankCoordsRoundTrip(t *testing.T) {
	g := New(4, 3)
	for r := 0; r < g.Size(); r++ {
		row, col := g.Coords(r)
		if g.RankOf(row, col) != r {
			t.Fatalf("round trip broken at rank %d", r)
		}
	}
}

func TestOwnerOfBlockCyclic(t *testing.T) {
	g := New(4, 3)
	// Figure 1(a)/(b): block (I, J) lives at grid (I mod 4, J mod 3).
	if g.OwnerOfBlock(0, 0) != 0 {
		t.Fatal("block (0,0) must be rank 0")
	}
	if g.OwnerOfBlock(4, 3) != 0 {
		t.Fatal("block (4,3) must wrap to rank 0")
	}
	if g.OwnerOfBlock(1, 2) != g.RankOf(1, 2) {
		t.Fatal("block (1,2) owner wrong")
	}
	if g.OwnerOfBlock(5, 4) != g.RankOf(1, 1) {
		t.Fatal("block (5,4) owner wrong")
	}
}

func TestGroups(t *testing.T) {
	g := New(3, 4)
	col := g.ColGroup(2)
	if len(col) != 3 {
		t.Fatalf("col group size %d", len(col))
	}
	for i, r := range col {
		if r != g.RankOf(i, 2) {
			t.Fatalf("col group wrong at %d", i)
		}
	}
	row := g.RowGroup(1)
	if len(row) != 4 {
		t.Fatalf("row group size %d", len(row))
	}
	for i, r := range row {
		if r != g.RankOf(1, i) {
			t.Fatalf("row group wrong at %d", i)
		}
	}
}

func TestSquarish(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 4: {2, 2}, 6: {2, 3}, 12: {3, 4},
		2116: {46, 46}, 256: {16, 16}, 24: {4, 6}, 7: {1, 7},
	}
	for p, want := range cases {
		g := Squarish(p)
		if g.Pr != want[0] || g.Pc != want[1] {
			t.Errorf("Squarish(%d) = %v, want %dx%d", p, g, want[0], want[1])
		}
		if g.Size() != p {
			t.Errorf("Squarish(%d) has wrong size %d", p, g.Size())
		}
	}
}

func TestPanics(t *testing.T) {
	g := New(2, 2)
	for _, f := range []func(){
		func() { New(0, 3) },
		func() { g.RankOf(2, 0) },
		func() { g.Coords(4) },
		func() { Squarish(0) },
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

// Property: owner is always a valid rank in the correct grid column/row.
func TestQuickOwnerConsistent(t *testing.T) {
	f := func(pr, pc, i, j uint8) bool {
		g := New(1+int(pr%8), 1+int(pc%8))
		owner := g.OwnerOfBlock(int(i), int(j))
		row, col := g.Coords(owner)
		return row == int(i)%g.Pr && col == int(j)%g.Pc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// RowGroup returns the ranks of grid row `row` in column order — the
// paper's "processor row" communication group.
func (g *Grid) RowGroup(row int) []int {
	out := make([]int, g.Pc)
	for c := 0; c < g.Pc; c++ {
		out[c] = g.RankOf(row, c)
	}
	return out
}

// ColGroup returns the ranks of grid column `col` in row order — the
// paper's "processor column" communication group.
func (g *Grid) ColGroup(col int) []int {
	out := make([]int, g.Pr)
	for r := 0; r < g.Pr; r++ {
		out[r] = g.RankOf(r, col)
	}
	return out
}
