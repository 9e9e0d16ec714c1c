package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// stencilTriplets is the triplet assembly stencilMatrix replaced, kept as
// its oracle: one dofs×dofs block of −1 per coupled node pair, through
// FromTriplets, then the same dominance and randomization.
func stencilTriplets(nx, ny, nz, dofs, radius int, faceOnly bool, seed int64) *CSC {
	g := &Geometry{NX: nx, NY: ny, NZ: nz, DofsPerNode: dofs}
	var ts []Triplet
	couple := func(a, b int) {
		for p := 0; p < dofs; p++ {
			for q := 0; q < dofs; q++ {
				ts = append(ts, Triplet{Row: a*dofs + p, Col: b*dofs + q, Val: -1})
			}
		}
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				me := g.NodeIndex(x, y, z)
				couple(me, me)
				for dz := -radius; dz <= radius; dz++ {
					for dy := -radius; dy <= radius; dy++ {
						for dx := -radius; dx <= radius; dx++ {
							if dx == 0 && dy == 0 && dz == 0 || faceOnly && abs(dx)+abs(dy)+abs(dz) != 1 {
								continue
							}
							X, Y, Z := x+dx, y+dy, z+dz
							if X < 0 || X >= nx || Y < 0 || Y >= ny || Z < 0 || Z >= nz {
								continue
							}
							couple(me, g.NodeIndex(X, Y, Z))
						}
					}
				}
			}
		}
	}
	a := FromTriplets(g.Nodes()*dofs, ts)
	a.MakeDiagonallyDominant(1)
	symmetricRandomize(a, rand.New(rand.NewSource(seed)), 0.5)
	return a
}

// TestStencilMatchesTriplets holds the column-by-column stencil assembly to
// the triplet oracle, ColPtr, RowIdx and the bits of Val, over every
// generator on it at several sizes, dofs and seeds — degenerate extents of
// 1 included.
func TestStencilMatchesTriplets(t *testing.T) {
	type gen struct {
		g                     *Generated
		nx, ny, nz, dofs, rad int
		faceOnly              bool
		seed                  int64
	}
	var cases []gen
	for _, seed := range []int64{1, 7} {
		for _, d := range [][3]int{{1, 1, 1}, {1, 5, 1}, {4, 3, 1}, {9, 6, 1}, {3, 4, 5}, {6, 1, 2}} {
			nx, ny, nz := d[0], d[1], d[2]
			if nz == 1 {
				cases = append(cases, gen{Grid2D(nx, ny, seed), nx, ny, 1, 1, 1, true, seed})
				for _, dofs := range []int{1, 2, 4} {
					cases = append(cases, gen{DG2D(nx, ny, dofs, seed), nx, ny, 1, dofs, 1, false, seed})
				}
				cases = append(cases, gen{DG2DRadius(nx, ny, 2, 2, seed), nx, ny, 1, 2, 2, false, seed})
			}
			cases = append(cases, gen{Grid3D(nx, ny, nz, seed), nx, ny, nz, 1, 1, true, seed})
			for _, dofs := range []int{1, 3} {
				cases = append(cases, gen{FE3D(nx, ny, nz, dofs, seed), nx, ny, nz, dofs, 1, false, seed})
			}
		}
	}
	for _, c := range cases {
		want, got := stencilTriplets(c.nx, c.ny, c.nz, c.dofs, c.rad, c.faceOnly, c.seed), c.g.A
		label := fmt.Sprintf("%s seed %d", c.g.Name, c.seed)
		if got.N != want.N || !slices.Equal(got.ColPtr, want.ColPtr) || !slices.Equal(got.RowIdx, want.RowIdx) {
			t.Fatalf("%s: pattern differs from the triplet assembly", label)
		}
		for p := range want.Val {
			if math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
				t.Fatalf("%s: Val[%d] = %v, triplet assembly %v", label, p, got.Val[p], want.Val[p])
			}
		}
	}
}
