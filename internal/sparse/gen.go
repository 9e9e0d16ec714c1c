package sparse

import (
	"fmt"
	"math/rand"
)

// Geometry records the regular-grid structure of a generated matrix, when
// one exists; the geometric nested-dissection ordering consumes it.
type Geometry struct {
	NX, NY, NZ  int // grid extents (NZ == 1 for 2D)
	DofsPerNode int // unknowns bundled per grid node
}

// Nodes returns the number of grid nodes.
func (g *Geometry) Nodes() int { return g.NX * g.NY * g.NZ }

// NodeIndex maps grid coordinates to a node id.
func (g *Geometry) NodeIndex(x, y, z int) int {
	return (z*g.NY+y)*g.NX + x
}

// Generated bundles a synthetic matrix with its provenance.
type Generated struct {
	A    *CSC
	Name string
	Geom *Geometry // nil when the matrix has no grid structure
}

// symmetricRandomize perturbs off-diagonal values symmetrically with
// magnitude scale, then restores diagonal dominance. Keeping values
// symmetric is required by the symmetric selected-inversion path.
func symmetricRandomize(a *CSC, rng *rand.Rand, scale float64) {
	for j := 0; j < a.N; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			if i < j { // visit each off-diagonal pair once (upper entry i<j)
				v := -1 - scale*rng.Float64()
				setEntry(a, i, j, v)
				setEntry(a, j, i, v)
			}
		}
	}
	a.MakeDiagonallyDominant(1)
}

func setEntry(a *CSC, i, j int, v float64) {
	k := a.pos(i, j)
	if k < 0 {
		panic(fmt.Sprintf("sparse: setEntry (%d,%d) not in pattern", i, j))
	}
	a.Val[k] = v
}

// stencilMatrix assembles a grid matrix: every node carries dofs unknowns;
// two nodes within Chebyshev distance radius of each other are coupled by a
// fully dense dofs×dofs block. radius 1 with dofs 1 gives the classical
// 5-point (2D) / 7-point (3D) Laplacian when diag==false neighbors are
// face-adjacent; we use the box stencil for radius>1 to emulate the denser
// coupling of DG discretizations.
//
// The matrix is built column by column: column (b, q) holds the rows of b's
// stencil neighbours, b included, nodes ascending and dofs within. The
// stencil is symmetric, so those are exactly the nodes coupled to b, each
// once. symmetricRandomize then sets every value.
func stencilMatrix(name string, nx, ny, nz, dofs, radius int, faceOnly bool, seed int64) *Generated {
	g := &Geometry{NX: nx, NY: ny, NZ: nz, DofsPerNode: dofs}
	n := g.Nodes() * dofs
	// neighbours appends node b's stencil neighbours to dst, ascending: the
	// loops run z, y, x major to minor, as NodeIndex does.
	neighbours := func(dst []int, b int) []int {
		x, y, z := b%nx, b/nx%ny, b/(nx*ny)
		for Z := max(z-radius, 0); Z <= min(z+radius, nz-1); Z++ {
			for Y := max(y-radius, 0); Y <= min(y+radius, ny-1); Y++ {
				for X := max(x-radius, 0); X <= min(x+radius, nx-1); X++ {
					if !faceOnly || abs(X-x)+abs(Y-y)+abs(Z-z) <= 1 {
						dst = append(dst, g.NodeIndex(X, Y, Z))
					}
				}
			}
		}
		return dst
	}
	var nbrs []int
	nnz := 0
	for b := 0; b < g.Nodes(); b++ {
		nbrs = neighbours(nbrs[:0], b)
		nnz += len(nbrs) * dofs * dofs
	}
	a := &CSC{N: n, ColPtr: make([]int, 1, n+1), RowIdx: make([]int, 0, nnz), Val: make([]float64, nnz)}
	for b := 0; b < g.Nodes(); b++ {
		nbrs = neighbours(nbrs[:0], b)
		for q := 0; q < dofs; q++ {
			for _, c := range nbrs {
				for p := 0; p < dofs; p++ {
					a.RowIdx = append(a.RowIdx, c*dofs+p)
				}
			}
			a.ColPtr = append(a.ColPtr, len(a.RowIdx))
		}
	}
	symmetricRandomize(a, rand.New(rand.NewSource(seed)), 0.5)
	return &Generated{A: a, Name: name, Geom: g}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Grid2D returns the 5-point Laplacian on an nx×ny grid with randomized
// symmetric values.
func Grid2D(nx, ny int, seed int64) *Generated {
	return stencilMatrix(fmt.Sprintf("grid2d_%dx%d", nx, ny), nx, ny, 1, 1, 1, true, seed)
}

// Grid3D returns the 7-point Laplacian on an nx×ny×nz grid.
func Grid3D(nx, ny, nz int, seed int64) *Generated {
	return stencilMatrix(fmt.Sprintf("grid3d_%dx%dx%d", nx, ny, nz), nx, ny, nz, 1, 1, true, seed)
}

// DG2D emulates a 2D discontinuous-Galerkin Hamiltonian: each element
// carries dofs unknowns, with dense coupling to the 8 surrounding elements.
// This mimics the "relatively dense" character of DG_PNF14000 /
// DG_Graphene: few elements, heavy blocks, 2D fill.
func DG2D(nx, ny, dofs int, seed int64) *Generated {
	return stencilMatrix(fmt.Sprintf("dg2d_%dx%d_b%d", nx, ny, dofs), nx, ny, 1, dofs, 1, false, seed)
}

// DG2DRadius is DG2D with an explicit coupling radius: every element
// couples densely to all elements within Chebyshev distance radius,
// emulating the wide adaptive-local-basis coupling that makes the paper's
// DG matrices dense (DG_PNF14000 carries 0.2% nonzeros — thousands per
// row).
func DG2DRadius(nx, ny, dofs, radius int, seed int64) *Generated {
	return stencilMatrix(fmt.Sprintf("dg2d_%dx%d_b%d_r%d", nx, ny, dofs, radius),
		nx, ny, 1, dofs, radius, false, seed)
}

// FE3D emulates a 3D finite-element matrix (audikw_1 / Flan_1565
// character): 3D grid, dofs unknowns per node, 27-point box coupling.
func FE3D(nx, ny, nz, dofs int, seed int64) *Generated {
	return stencilMatrix(fmt.Sprintf("fe3d_%dx%dx%d_b%d", nx, ny, nz, dofs), nx, ny, nz, dofs, 1, false, seed)
}

// Banded returns a symmetric banded matrix with half-bandwidth bw.
func Banded(n, bw int, seed int64) *Generated {
	var ts []Triplet
	for j := 0; j < n; j++ {
		for i := j; i <= j+bw && i < n; i++ {
			ts = append(ts, Triplet{Row: i, Col: j, Val: -1})
			if i != j {
				ts = append(ts, Triplet{Row: j, Col: i, Val: -1})
			}
		}
	}
	a := FromTriplets(n, ts)
	a.MakeDiagonallyDominant(1)
	symmetricRandomize(a, rand.New(rand.NewSource(seed)), 0.5)
	return &Generated{A: a, Name: fmt.Sprintf("banded_%d_bw%d", n, bw)}
}

// RandomSym returns a random structurally symmetric matrix with about
// avgDeg off-diagonal entries per row plus a full diagonal, diagonally
// dominant.
func RandomSym(n, avgDeg int, seed int64) *Generated {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool)
	var ts []Triplet
	for j := 0; j < n; j++ {
		ts = append(ts, Triplet{Row: j, Col: j, Val: 1})
	}
	target := n * avgDeg / 2
	for c := 0; c < target; c++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if i < j {
			i, j = j, i
		}
		key := [2]int{i, j}
		if seen[key] {
			continue
		}
		seen[key] = true
		v := -1 - rng.Float64()
		ts = append(ts, Triplet{Row: i, Col: j, Val: v}, Triplet{Row: j, Col: i, Val: v})
	}
	a := FromTriplets(n, ts)
	a.MakeDiagonallyDominant(1)
	return &Generated{A: a, Name: fmt.Sprintf("randsym_%d_d%d", n, avgDeg)}
}

// Asymmetrize perturbs the off-diagonal values of g independently on the
// two sides of the diagonal — the pattern stays structurally symmetric but
// A ≠ Aᵀ in values — and restores doubly (row and column) dominant
// diagonals for unpivoted LU stability. It exercises the general
// selected-inversion path (the asymmetric extension the paper lists as
// work in progress).
func Asymmetrize(g *Generated, seed int64, eps float64) *Generated {
	rng := rand.New(rand.NewSource(seed))
	a := g.A
	for j := 0; j < a.N; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if a.RowIdx[k] != j {
				a.Val[k] *= 1 + eps*(rng.Float64()-0.5)
			}
		}
	}
	a.MakeDoublyDominant(1)
	g.Name = g.Name + "_asym"
	return g
}

// RandomAsym returns a random structurally symmetric matrix with
// asymmetric values.
func RandomAsym(n, avgDeg int, seed int64) *Generated {
	return Asymmetrize(RandomSym(n, avgDeg, seed), seed+1, 0.8)
}

// Standins returns the stand-in suite for the paper's test matrices, in the
// order of Table II. Each stand-in keeps the dimensional character (2D-dense
// DG vs 3D FE) of its counterpart and is sized for the paper's 46×46 grid:
// large enough that all 2,116 ranks carry traffic, small enough that
// ordering and symbolic analysis take seconds. They are analyzed, never
// factorized (cmd/commvol reads the volumes off the plan); EXPERIMENTS.md
// records each N beside the paper's.
func Standins(seed int64) []*Generated {
	return []*Generated{
		renamed(DG2DRadius(44, 44, 6, 2, seed+1), "DG_Graphene_32768_standin"), // large 2D DG
		renamed(DG2DRadius(48, 48, 8, 2, seed+2), "DG_PNF14000_standin"),       // 2D DG, dense
		renamed(DG2DRadius(36, 36, 5, 2, seed+3), "DG_Water_12888_standin"),    // small DG
		renamed(DG2DRadius(40, 40, 5, 2, seed+4), "LU_C_BN_C_4by2_standin"),    // mid 2D DG
		AudikwStandin(seed), // 3D FE, 3 dofs
		renamed(Grid3D(40, 40, 40, seed+6), "Flan_1565_standin"), // 3D, sparser
	}
}

// AudikwStandin returns the stand-in used for the audikw_1-based
// communication-volume experiments (Table I, Figs 4–7): N = 65,856.
func AudikwStandin(seed int64) *Generated {
	return renamed(FE3D(28, 28, 28, 3, seed), "audikw_1_standin")
}

func renamed(g *Generated, name string) *Generated {
	g.Name = name
	return g
}
