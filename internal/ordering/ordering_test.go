package ordering

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"pselinv/internal/sparse"
)

// fillCount runs a simple scalar symbolic elimination on the permuted
// pattern and returns nnz(L) including the diagonal. Quadratic, test-only.
func fillCount(a *sparse.CSC, perm []int) int {
	p := a.Permute(perm)
	n := p.N
	rows := make([]map[int]bool, n) // pattern of column j, rows >= j
	for j := 0; j < n; j++ {
		rows[j] = map[int]bool{j: true}
		for k := p.ColPtr[j]; k < p.ColPtr[j+1]; k++ {
			if i := p.RowIdx[k]; i > j {
				rows[j][i] = true
			}
		}
	}
	total := 0
	for j := 0; j < n; j++ {
		// First below-diagonal row index is the etree parent; merge.
		parent := n
		for i := range rows[j] {
			if i > j && i < parent {
				parent = i
			}
		}
		if parent < n {
			for i := range rows[j] {
				if i > parent {
					rows[parent][i] = true
				}
			}
		}
		total += len(rows[j])
	}
	return total
}

// TestAdjacencySymmetric: the graph lists each column's off-diagonal rows in
// storage order, and every edge both ways.
func TestAdjacencySymmetric(t *testing.T) {
	a := sparse.Grid3D(3, 3, 2, 1).A
	g := adjacency(a)
	for u := range g.n() {
		want := slices.DeleteFunc(slices.Clone(a.RowIdx[a.ColPtr[u]:a.ColPtr[u+1]]), func(i int) bool { return i == u })
		if !slices.Equal(g.nbrs(u), want) {
			t.Fatalf("neighbours of %d = %v, want %v", u, g.nbrs(u), want)
		}
		for _, v := range g.nbrs(u) {
			if !slices.Contains(g.nbrs(v), u) {
				t.Fatalf("adjacency asymmetric: %d->%d", u, v)
			}
		}
	}
}

func TestIdentity(t *testing.T) {
	p := Identity(5)
	for i, v := range p {
		if v != i {
			t.Fatalf("Identity[%d] = %d", i, v)
		}
	}
}

func TestInverse(t *testing.T) {
	p := []int{2, 0, 3, 1}
	inv := Inverse(p)
	for i := range p {
		if inv[p[i]] != i {
			t.Fatalf("Inverse broken at %d", i)
		}
	}
}

func TestIsPermutation(t *testing.T) {
	if !IsPermutation([]int{1, 0, 2}) {
		t.Fatal("valid permutation rejected")
	}
	if IsPermutation([]int{0, 0, 2}) || IsPermutation([]int{0, 3, 1}) {
		t.Fatal("invalid permutation accepted")
	}
}

func allMethodsValidOn(t *testing.T, g *sparse.Generated) {
	t.Helper()
	for _, m := range []Method{Natural, RCM, NestedDissection, MinimumDegree} {
		p := Compute(m, g.A, g.Geom)
		if len(p) != g.A.N || !IsPermutation(p) {
			t.Errorf("%s on %s: invalid permutation", m, g.Name)
		}
	}
}

func TestAllMethodsProducePermutations(t *testing.T) {
	allMethodsValidOn(t, sparse.Grid2D(7, 6, 1))
	allMethodsValidOn(t, sparse.Grid3D(4, 4, 3, 2))
	allMethodsValidOn(t, sparse.DG2D(4, 4, 3, 3))
	allMethodsValidOn(t, sparse.RandomSym(60, 4, 4))
	allMethodsValidOn(t, sparse.Banded(40, 3, 5))
}

func TestRCMReducesBandwidthOnShuffledBand(t *testing.T) {
	g := sparse.Banded(60, 2, 1)
	shuffle := rand.New(rand.NewSource(3)).Perm(g.A.N)
	shuffled := g.A.Permute(shuffle)
	bw := func(a *sparse.CSC) int {
		b := 0
		for j := 0; j < a.N; j++ {
			for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
				if d := a.RowIdx[k] - j; d > b {
					b = d
				}
			}
		}
		return b
	}
	before := bw(shuffled)
	perm := reverseCuthillMcKee(adjacency(shuffled))
	after := bw(shuffled.Permute(perm))
	if after >= before {
		t.Fatalf("RCM did not reduce bandwidth: %d -> %d", before, after)
	}
	if after > 10 {
		t.Fatalf("RCM bandwidth %d too large for a bw-2 band", after)
	}
}

func TestNDReducesFillOn2DGrid(t *testing.T) {
	g := sparse.Grid2D(12, 12, 1)
	natural := fillCount(g.A, Identity(g.A.N))
	nd := fillCount(g.A, Compute(NestedDissection, g.A, g.Geom))
	if nd >= natural {
		t.Fatalf("geometric ND fill %d >= natural fill %d", nd, natural)
	}
}

func TestGraphNDReducesFillOn2DGrid(t *testing.T) {
	g := sparse.Grid2D(12, 12, 1)
	natural := fillCount(g.A, Identity(g.A.N))
	nd := fillCount(g.A, graphND(adjacency(g.A), 16))
	if nd >= natural {
		t.Fatalf("graph ND fill %d >= natural fill %d", nd, natural)
	}
}

func TestMinDegreeReducesFillOnGrid(t *testing.T) {
	g := sparse.Grid2D(10, 10, 1)
	natural := fillCount(g.A, Identity(g.A.N))
	md := fillCount(g.A, minDegree(adjacency(g.A)))
	if md >= natural {
		t.Fatalf("MD fill %d >= natural fill %d", md, natural)
	}
}

func TestMinDegreeStar(t *testing.T) {
	// Star graph: center must be eliminated last (degree n-1 vs 1).
	n := 8
	adj := make([][]int, n)
	for i := 1; i < n; i++ {
		adj[0] = append(adj[0], i)
		adj[i] = []int{0}
	}
	p := minDegree(fromLists(adj))
	// The center may tie with the final leaf at external degree 1, but must
	// be one of the last two vertices eliminated, and the ordering must be
	// fill-free.
	if p[0] < n-2 {
		t.Fatalf("star center ordered at %d, want >= %d", p[0], n-2)
	}
	if got := fillCount(starMatrix(n), p); got != 2*n-1 {
		t.Fatalf("MD on star should give zero fill: nnz(L) = %d, want %d", got, 2*n-1)
	}
}

func starMatrix(n int) *sparse.CSC {
	var ts []sparse.Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: float64(n)})
	}
	for i := 1; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: 0, Col: i, Val: -1},
			sparse.Triplet{Row: i, Col: 0, Val: -1})
	}
	return sparse.FromTriplets(n, ts)
}

func TestGeometricNDKeepsDofsContiguous(t *testing.T) {
	g := sparse.DG2D(4, 4, 3, 1)
	p := geometricND(g.Geom)
	b := g.Geom.DofsPerNode
	for node := 0; node < g.Geom.Nodes(); node++ {
		base := p[node*b]
		if base%b != 0 {
			t.Fatalf("node %d dofs not aligned (base %d)", node, base)
		}
		for d := 1; d < b; d++ {
			if p[node*b+d] != base+d {
				t.Fatalf("node %d dofs not contiguous", node)
			}
		}
	}
}

func TestRCMHandlesDisconnectedGraph(t *testing.T) {
	// Two disjoint paths.
	adj := [][]int{{1}, {0, 2}, {1}, {4}, {3, 5}, {4}}
	p := reverseCuthillMcKee(fromLists(adj))
	if !IsPermutation(p) {
		t.Fatal("invalid permutation on disconnected graph")
	}
}

func TestGraphNDHandlesClique(t *testing.T) {
	n := 40
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				adj[i] = append(adj[i], j)
			}
		}
	}
	p := graphND(fromLists(adj), 8)
	if !IsPermutation(p) {
		t.Fatal("graphND failed on clique")
	}
}

func TestGraphNDHandlesDisconnected(t *testing.T) {
	adj := make([][]int, 50) // fully disconnected
	p := graphND(fromLists(adj), 4)
	if !IsPermutation(p) {
		t.Fatal("graphND failed on edgeless graph")
	}
	if p := graphND(fromLists(nil), 4); len(p) != 0 {
		t.Fatalf("graphND of the empty graph = %v", p)
	}
}

// Property: every method yields a valid permutation on random graphs.
func TestQuickMethodsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := sparse.RandomSym(20+int(r.Int31n(40)), 1+int(r.Int31n(5)), seed)
		for _, m := range []Method{Natural, RCM, NestedDissection, MinimumDegree} {
			if !IsPermutation(Compute(m, g.A, nil)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: Inverse is an involution.
func TestQuickInverseInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := r.Perm(1 + int(r.Int31n(50)))
		q := Inverse(Inverse(p))
		for i := range p {
			if p[i] != q[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		Natural: "natural", RCM: "rcm", NestedDissection: "nd", MinimumDegree: "mmd",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}

func BenchmarkGeometricND(b *testing.B) {
	g := sparse.Grid3D(12, 12, 12, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		geometricND(g.Geom)
	}
}

func BenchmarkMinDegreeGrid(b *testing.B) {
	g := sparse.Grid2D(16, 16, 1)
	adj := adjacency(g.A)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		minDegree(adj)
	}
}

// uploadPattern is the pattern of the cold upload benchmark's matrix: no
// geometry, so Compute runs graph nested dissection on it.
func uploadPattern() *sparse.CSC { return sparse.Grid2D(96, 96, 1).A }

func BenchmarkGraphND(b *testing.B) {
	a := uploadPattern()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compute(NestedDissection, a, nil)
	}
}

// TestGraphNDAllocBudget holds graph nested dissection on the upload pattern
// to its flat arrays: 21.8 MB per call while its sets were maps, 2.0 since
// they are stamps, levels and per-vertex slices over one CSR graph. The
// budget leaves about twice that, far from what maps take.
func TestGraphNDAllocBudget(t *testing.T) {
	const budgetMB, calls = 4.5, 3
	a := uploadPattern()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		Compute(NestedDissection, a, nil)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / calls / 1e6; mb > budgetMB {
		t.Fatalf("graph nested dissection allocates %.2f MB per call, budget %.1f", mb, budgetMB)
	} else {
		t.Logf("graph nested dissection: %.2f MB per call", mb)
	}
}
