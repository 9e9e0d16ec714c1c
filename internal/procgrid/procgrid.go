// Package procgrid implements the Pr×Pc virtual 2D processor grid and the
// 2D block-cyclic mapping of supernodal blocks onto it (Figure 1 of the
// paper): block (I, J) is owned by the rank at grid coordinates
// (I mod Pr, J mod Pc), with ranks numbered row-major.
package procgrid

import "fmt"

// Grid is a Pr×Pc process grid.
type Grid struct {
	Pr, Pc int
}

// New returns a Pr×Pc grid.
func New(pr, pc int) *Grid {
	if pr <= 0 || pc <= 0 {
		panic(fmt.Sprintf("procgrid: invalid grid %dx%d", pr, pc))
	}
	return &Grid{Pr: pr, Pc: pc}
}

// Squarish returns the most square Pr×Pc factorization of p with Pr <= Pc,
// matching the near-square grids used throughout the paper's evaluation.
func Squarish(p int) *Grid {
	if p <= 0 {
		panic("procgrid: non-positive processor count")
	}
	pr := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	return New(pr, p/pr)
}

// Size returns the number of ranks.
func (g *Grid) Size() int { return g.Pr * g.Pc }

// RankOf maps grid coordinates to a rank (row-major).
func (g *Grid) RankOf(row, col int) int {
	if row < 0 || row >= g.Pr || col < 0 || col >= g.Pc {
		panic(fmt.Sprintf("procgrid: coords (%d,%d) outside %dx%d", row, col, g.Pr, g.Pc))
	}
	return row*g.Pc + col
}

// Coords maps a rank to its grid coordinates.
func (g *Grid) Coords(rank int) (row, col int) {
	if rank < 0 || rank >= g.Size() {
		panic(fmt.Sprintf("procgrid: rank %d outside grid of %d", rank, g.Size()))
	}
	return rank / g.Pc, rank % g.Pc
}

// ProcRowOfBlock returns the grid row owning block-row i.
func (g *Grid) ProcRowOfBlock(i int) int { return i % g.Pr }

// ProcColOfBlock returns the grid column owning block-column j.
func (g *Grid) ProcColOfBlock(j int) int { return j % g.Pc }

// OwnerOfBlock returns the rank owning block (i, j) under the 2D
// block-cyclic distribution.
func (g *Grid) OwnerOfBlock(i, j int) int {
	return g.RankOf(g.ProcRowOfBlock(i), g.ProcColOfBlock(j))
}

// String describes the grid.
func (g *Grid) String() string { return fmt.Sprintf("%dx%d", g.Pr, g.Pc) }
