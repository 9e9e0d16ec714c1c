package etree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

// postorderOracle is Postorder by recursion over per-vertex child slices,
// roots and children in ascending order.
func postorderOracle(parent []int) []int {
	children := make([][]int, len(parent))
	for v, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], v)
		}
	}
	perm, label := make([]int, len(parent)), 0
	var visit func(v int)
	visit = func(v int) {
		for _, c := range children[v] {
			visit(c)
		}
		perm[v] = label
		label++
	}
	for v, p := range parent {
		if p < 0 {
			visit(v)
		}
	}
	return perm
}

// colPatterns is a scalar symbolic factorization, the oracle of colCounts:
// for each column j the sorted row indices (>= j, diagonal included) of L's
// pattern, struct(L(:,j)) = struct(A(j:,j)) ∪ ⋃_{parent(c)==j}
// (struct(L(:,c)) \ {c}).
func colPatterns(a *sparse.CSC, parent []int) [][]int {
	n := a.N
	pat := make([][]int, n)
	children := make([][]int, n)
	for v := 0; v < n; v++ {
		if p := parent[v]; p >= 0 {
			children[p] = append(children[p], v)
		}
	}
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	for j := 0; j < n; j++ {
		rows := []int{j}
		mark[j] = j
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if i := a.RowIdx[k]; i > j && mark[i] != j {
				mark[i] = j
				rows = append(rows, i)
			}
		}
		for _, c := range children[j] {
			for _, i := range pat[c] {
				if i > j && mark[i] != j {
					mark[i] = j
					rows = append(rows, i)
				}
			}
		}
		sort.Ints(rows)
		pat[j] = rows
	}
	return pat
}

// closedRowsOf is the oracle of NewBlockPattern's rows: symbolic
// right-looking block elimination of a under part, one set per supernode.
// It records every entry of a in the lower triangle, so it needs no
// structural symmetry.
func closedRowsOf(a *sparse.CSC, part *Partition) [][]int {
	ns := part.NumSnodes()
	sets := make([]map[int]bool, ns)
	for k := range sets {
		sets[k] = map[int]bool{k: true}
	}
	for j := 0; j < a.N; j++ {
		kj := part.SnodeOf[j]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			ki := part.SnodeOf[a.RowIdx[p]]
			sets[min(ki, kj)][max(ki, kj)] = true
		}
	}
	// Eliminating K couples every pair of its below-diagonal block rows.
	rowsOf := make([][]int, ns)
	for k := 0; k < ns; k++ {
		rows := make([]int, 0, len(sets[k]))
		for i := range sets[k] {
			rows = append(rows, i)
		}
		sort.Ints(rows)
		for x := 1; x < len(rows); x++ {
			for y := x + 1; y < len(rows); y++ {
				sets[rows[x]][rows[y]] = true
			}
		}
		rowsOf[k] = rows
	}
	return rowsOf
}

// symbolicInput is one input of FuzzSymbolic. Every field decodes to a valid
// value, so the fuzzer may set any bits.
type symbolicInput struct {
	Gen            uint8 // matrix class: genGrid2D … genRandomSym
	D1, D2, D3, D4 uint8 // the class's dimensions (see matrix)
	Seed           int64 // the generator's seed
	Order          uint8 // mod 3: natural, nested dissection with geometry, without
	Relax, Width   uint8 // Options: Relax mod 17, MaxWidth mod 49 (0 = unlimited)
}

const (
	genGrid2D = iota
	genGrid3D
	genDG2D
	genFE3D
	genBanded
	genRandomSym
	numGens
)

// dim maps x to 1..m, each of 1..m to itself.
func dim(x uint8, m int) int { return 1 + (int(x)+m-1)%m }

// matrix generates the input's matrix and the fill ordering it names. The
// dimensions bound it to 576 unknowns, which bounds an input's cost: the
// costliest measured (RandomSym n = 400 of degree 7, natural order, width-1
// supernodes: Σ|C(K)|² ≈ 7·10⁶ pairs for the closure oracle) takes 0.14 s on
// a 2-vCPU host and 0.85 s under the race detector, well inside the fuzz
// engine's 10 s per input.
func (in *symbolicInput) matrix() (*sparse.Generated, []int) {
	var g *sparse.Generated
	switch in.Gen % numGens {
	case genGrid2D:
		g = sparse.Grid2D(dim(in.D1, 24), dim(in.D2, 24), in.Seed)
	case genGrid3D:
		g = sparse.Grid3D(dim(in.D1, 8), dim(in.D2, 8), dim(in.D3, 8), in.Seed)
	case genDG2D:
		g = sparse.DG2D(dim(in.D1, 8), dim(in.D2, 8), dim(in.D4, 5), in.Seed)
	case genFE3D:
		g = sparse.FE3D(dim(in.D1, 5), dim(in.D2, 5), dim(in.D3, 5), dim(in.D4, 3), in.Seed)
	case genBanded:
		g = sparse.Banded(dim(in.D1, 400), int(in.D2%12), in.Seed)
	case genRandomSym:
		g = sparse.RandomSym(dim(in.D1, 400), int(in.D2%8), in.Seed)
	}
	switch in.Order % 3 {
	case 1:
		return g, ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	case 2:
		return g, ordering.Compute(ordering.NestedDissection, g.A, nil)
	}
	return g, ordering.Identity(g.A.N)
}

// FuzzSymbolic holds the symbolic phase to oracles: Postorder to a
// recursive one, and Analyze to the routines it replaced — the column
// counts to colPatterns' lengths, RowsOf and SnParent to closedRowsOf — as
// well as the partition to Supernodes on those counts, and the pattern to
// the closure invariant and the factor layout's contract.
func FuzzSymbolic(f *testing.F) {
	for _, in := range symbolicCorpus {
		f.Add(in.Gen, in.D1, in.D2, in.D3, in.D4, in.Seed, in.Order, in.Relax, in.Width)
	}
	f.Fuzz(func(t *testing.T, gen, d1, d2, d3, d4 uint8, seed int64, order, relax, width uint8) {
		checkSymbolic(t, &symbolicInput{gen, d1, d2, d3, d4, seed, order, relax, width})
	})
}

func checkSymbolic(t *testing.T, in *symbolicInput) {
	g, perm := in.matrix()
	opt := Options{Relax: int(in.Relax % 17), MaxWidth: int(in.Width % 49)}
	a := g.A.Permute(perm)
	an := Analyze(a, perm, opt)
	label := fmt.Sprintf("%s %+v", g.Name, *in)
	if parent := parents(a, nil); !slices.Equal(postorder(parent), postorderOracle(parent)) {
		t.Fatalf("%s: Postorder differs from its oracle", label)
	}
	bp := an.BP
	pat := colPatterns(an.A, an.Parent)
	for j, rows := range pat {
		if an.ColCount[j] != len(rows) {
			t.Fatalf("%s: ColCount[%d] = %d, oracle %d", label, j, an.ColCount[j], len(rows))
		}
	}
	if want := Supernodes(an.Parent, an.ColCount, opt.Relax, opt.MaxWidth); !slices.Equal(bp.Part.Start, want.Start) {
		t.Fatalf("%s: partition %v, want %v", label, bp.Part.Start, want.Start)
	}
	want := closedRowsOf(an.A, bp.Part)
	for k, rows := range want {
		if !slices.Equal(bp.RowsOf[k], rows) {
			t.Fatalf("%s: RowsOf[%d] = %v, oracle %v", label, k, bp.RowsOf[k], rows)
		}
		parent := -1
		if len(rows) > 1 {
			parent = rows[1]
		}
		if bp.SnParent[k] != parent {
			t.Fatalf("%s: SnParent[%d] = %d, oracle rows %v", label, k, bp.SnParent[k], rows)
		}
	}
	if err := bp.CheckClosure(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkLayout(t, label, bp)
	// Analysis of the unpermuted matrix under the fill ordering, which
	// permutes it once, is the same analysis bit for bit.
	once := AnalyzeOrder(g.A, perm, opt)
	if !slices.Equal(once.PermTotal, an.PermTotal) || !slices.Equal(once.Parent, an.Parent) ||
		!slices.Equal(once.ColCount, an.ColCount) || !slices.Equal(once.BP.Part.Start, bp.Part.Start) ||
		!slices.Equal(once.A.ColPtr, an.A.ColPtr) || !slices.Equal(once.A.RowIdx, an.A.RowIdx) ||
		!slices.EqualFunc(once.A.Val, an.A.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		t.Fatalf("%s: AnalyzeOrder differs from Analyze of the permuted matrix", label)
	}
}

// symbolicCorpus seeds FuzzSymbolic: every class under every ordering, at
// the widths and slacks the pipeline uses (relax 4, width 48 and 24), the
// fundamental partition, and an unlimited width with a wide slack.
var symbolicCorpus = func() []symbolicInput {
	shapes := []symbolicInput{
		{Gen: genGrid2D, D1: 24, D2: 17, Seed: 1},
		{Gen: genGrid3D, D1: 6, D2: 5, D3: 7, Seed: 2},
		{Gen: genDG2D, D1: 6, D2: 5, D4: 4, Seed: 3},
		{Gen: genFE3D, D1: 4, D2: 5, D3: 3, D4: 3, Seed: 4},
		{Gen: genBanded, D1: 200, D2: 5, Seed: 5},
		{Gen: genRandomSym, D1: 120, D2: 4, Seed: 6},
	}
	var out []symbolicInput
	for _, s := range shapes {
		for order := uint8(0); order < 3; order++ {
			for _, rw := range [][2]uint8{{4, 48}, {0, 0}, {4, 24}, {16, 0}} {
				in := s
				in.Order, in.Relax, in.Width = order, rw[0], rw[1]
				out = append(out, in)
			}
		}
	}
	return out
}()
