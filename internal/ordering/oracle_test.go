package ordering

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"pselinv/internal/sparse"
)

// The routines below are the map-based orderings the flat-array ones
// replaced, kept as their oracles: they take adjacency lists, keep every set
// in a map, and must give the same permutations (FuzzOrdering).

// lists returns g's adjacency as one slice per vertex, the oracles' input.
func lists(g graph) [][]int {
	adj := make([][]int, g.n())
	for v := range adj {
		adj[v] = g.nbrs(v)
	}
	return adj
}

// fromLists is the graph of adjacency lists, which must be symmetric.
func fromLists(adj [][]int) graph {
	g := graph{off: make([]int, 1, len(adj)+1)}
	for _, nbrs := range adj {
		g.adj = append(g.adj, nbrs...)
		g.off = append(g.off, len(g.adj))
	}
	return g
}

// rcmOracle is reverseCuthillMcKee with a fresh queue and neighbour slice per
// vertex.
func rcmOracle(adj [][]int) []int {
	n := len(adj)
	visited := make([]bool, n)
	order := make([]int, 0, n)
	deg := func(v int) int { return len(adj[v]) }
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := pseudoPeripheralOracle(adj, start)
		// BFS from root.
		queue := []int{root}
		visited[root] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			nbrs := make([]int, 0, len(adj[v]))
			for _, w := range adj[v] {
				if !visited[w] {
					visited[w] = true
					nbrs = append(nbrs, w)
				}
			}
			sort.Slice(nbrs, func(i, j int) bool { return deg(nbrs[i]) < deg(nbrs[j]) })
			queue = append(queue, nbrs...)
		}
	}
	// Reverse: old vertex order[k] gets new label n-1-k.
	perm := make([]int, n)
	for k, v := range order {
		perm[v] = n - 1 - k
	}
	return perm
}

// pseudoPeripheralOracle is rcmOracle's pseudoPeripheral.
func pseudoPeripheralOracle(adj [][]int, start int) int {
	v := start
	lastEcc := -1
	for iter := 0; iter < 8; iter++ {
		levels, far := bfsLevelsOracle(adj, v)
		ecc := levels[far]
		if ecc <= lastEcc {
			break
		}
		lastEcc = ecc
		v = far
	}
	return v
}

// bfsLevelsOracle returns BFS levels from root (-1 for unreachable) in a
// fresh array and the farthest reached vertex (ties broken by smallest
// degree).
func bfsLevelsOracle(adj [][]int, root int) (levels []int, far int) {
	n := len(adj)
	levels = make([]int, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[root] = 0
	queue := []int{root}
	far = root
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if levels[v] > levels[far] ||
			(levels[v] == levels[far] && len(adj[v]) < len(adj[far])) {
			far = v
		}
		for _, w := range adj[v] {
			if levels[w] < 0 {
				levels[w] = levels[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return levels, far
}

// graphNDOracle is graphND with every piece and part a fresh slice.
func graphNDOracle(adj [][]int, leafSize int) []int {
	n := len(adj)
	perm := make([]int, n)
	next := n // numbers are assigned from the back (separators last)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var rec func(vertices []int)
	rec = func(vertices []int) {
		if len(vertices) == 0 {
			return
		}
		if len(vertices) <= leafSize {
			local := inducedMinDegreeOracle(adj, vertices)
			// local[i] is a position 0..len-1; map into the global range
			// [next-len, next).
			base := next - len(vertices)
			for idx, v := range vertices {
				perm[v] = base + local[idx]
			}
			next = base
			return
		}
		left, right, sep := bisectOracle(adj, vertices)
		if len(sep) == 0 || len(left) == 0 || len(right) == 0 {
			// No useful separator (e.g. a clique): fall back to local MD.
			local := inducedMinDegreeOracle(adj, vertices)
			base := next - len(vertices)
			for idx, v := range vertices {
				perm[v] = base + local[idx]
			}
			next = base
			return
		}
		// Number separator last, then recurse on halves.
		for i := len(sep) - 1; i >= 0; i-- {
			next--
			perm[sep[i]] = next
		}
		rec(right)
		rec(left)
	}
	rec(all)
	if next != 0 {
		panic("ordering: graphNDOracle did not number all vertices")
	}
	return perm
}

// bisectOracle is bisect with the piece's membership and levels in maps,
// returning the parts as fresh slices.
func bisectOracle(adj [][]int, vertices []int) (left, right, sep []int) {
	in := make(map[int]bool, len(vertices))
	for _, v := range vertices {
		in[v] = true
	}
	// BFS levels within the piece, from a pseudo-peripheral vertex.
	root := vertices[0]
	level := make(map[int]int, len(vertices))
	var bfs func(r int) (map[int]int, int)
	bfs = func(r int) (map[int]int, int) {
		lv := map[int]int{r: 0}
		q := []int{r}
		far := r
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			if lv[v] > lv[far] {
				far = v
			}
			for _, w := range adj[v] {
				if in[w] {
					if _, ok := lv[w]; !ok {
						lv[w] = lv[v] + 1
						q = append(q, w)
					}
				}
			}
		}
		return lv, far
	}
	lv, far := bfs(root)
	lv, far = bfs(far) // second sweep from the far end improves the cut
	level = lv
	_ = far
	// Vertices not reached are a separate component; send them left.
	maxLv := 0
	reachedCount := 0
	for _, l := range level {
		reachedCount++
		if l > maxLv {
			maxLv = l
		}
	}
	if maxLv == 0 {
		// Single BFS level: likely a clique or star; no separator found.
		return nil, nil, nil
	}
	// Choose the level whose cut best balances the halves.
	counts := make([]int, maxLv+1)
	for _, l := range level {
		counts[l]++
	}
	bestLevel, bestScore := -1, 1<<62
	below := 0
	for l := 0; l < maxLv; l++ {
		below += counts[l]
		above := reachedCount - below - counts[l+1]
		_ = above
		// Score: separator size (counts[l+1]) plus imbalance penalty.
		imbalance := absInt((reachedCount - counts[l+1]) - 2*below)
		score := counts[l+1]*4 + imbalance
		if score < bestScore {
			bestScore, bestLevel = score, l
		}
	}
	sepLevel := bestLevel + 1
	for _, v := range vertices {
		l, ok := level[v]
		switch {
		case !ok: // unreachable component
			left = append(left, v)
		case l < sepLevel:
			left = append(left, v)
		case l == sepLevel:
			sep = append(sep, v)
		default:
			right = append(right, v)
		}
	}
	return left, right, sep
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// inducedMinDegreeOracle is inducedMinDegree with the local indexes in a map.
func inducedMinDegreeOracle(adj [][]int, vertices []int) []int {
	idx := make(map[int]int, len(vertices))
	for i, v := range vertices {
		idx[v] = i
	}
	local := make([][]int, len(vertices))
	for i, v := range vertices {
		for _, w := range adj[v] {
			if j, ok := idx[w]; ok {
				local[i] = append(local[i], j)
			}
		}
	}
	perm := minDegreeOracle(local)
	return perm
}

// minDegreeOracle is minDegree with every variable's neighbours and elements,
// and every element's boundary, in a map.
func minDegreeOracle(adj [][]int) []int {
	n := len(adj)
	perm := make([]int, n)
	// Quotient graph state: each live variable has variable neighbors
	// (vnbr) and element neighbors (enbr). Eliminated variables become
	// elements whose boundary is their live variable list.
	vnbr := make([]map[int]bool, n)
	enbr := make([]map[int]bool, n)
	elemBoundary := make([]map[int]bool, n)
	eliminated := make([]bool, n)
	for v := range adj {
		vnbr[v] = make(map[int]bool, len(adj[v]))
		enbr[v] = make(map[int]bool)
		for _, w := range adj[v] {
			if w != v {
				vnbr[v][w] = true
			}
		}
	}
	// degree = |reachable set| through variables and element boundaries.
	reach := func(v int, buf map[int]bool) map[int]bool {
		for k := range buf {
			delete(buf, k)
		}
		for w := range vnbr[v] {
			if !eliminated[w] {
				buf[w] = true
			}
		}
		for e := range enbr[v] {
			for w := range elemBoundary[e] {
				if w != v && !eliminated[w] {
					buf[w] = true
				}
			}
		}
		return buf
	}
	buf := make(map[int]bool)
	// Cached degrees: a vertex's reachable set only changes when it lies on
	// the boundary of the element just formed, so degrees are recomputed
	// lazily for exactly those vertices after each elimination.
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = len(reach(v, buf))
	}
	for k := 0; k < n; k++ {
		// Pick the minimum-degree live variable (ties: smallest id, for
		// determinism).
		best, bestDeg := -1, 1<<62
		for v := 0; v < n; v++ {
			if eliminated[v] {
				continue
			}
			if deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		v := best
		perm[v] = k
		eliminated[v] = true
		// v becomes an element with boundary = its reachable set.
		bnd := make(map[int]bool)
		for w := range reach(v, buf) {
			bnd[w] = true
		}
		elemBoundary[v] = bnd
		// Absorb v's elements (they are now subsumed by element v).
		for e := range enbr[v] {
			for w := range elemBoundary[e] {
				if !eliminated[w] {
					delete(enbr[w], e)
				}
			}
			elemBoundary[e] = nil
		}
		// Update boundary variables: drop v from their variable lists, add
		// element v.
		for w := range bnd {
			delete(vnbr[w], v)
			enbr[w][v] = true
		}
		for w := range bnd {
			deg[w] = len(reach(w, buf))
		}
	}
	return perm
}

// orderingInput is one input of FuzzOrdering. Every field decodes to a valid
// value, so the fuzzer may set any bits.
type orderingInput struct {
	Gen            uint8 // matrix class: genGrid2D … genRandomSym
	D1, D2, D3, D4 uint8 // the class's dimensions (see matrix)
	Seed           int64 // the generator's seed
	Leaf           uint8 // graphND's leaf size, mod 64
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

// matrix generates the input's matrix, at most 600 unknowns.
func (in *orderingInput) matrix() *sparse.Generated {
	switch in.Gen % numGens {
	case genGrid2D:
		return sparse.Grid2D(dim(in.D1, 24), dim(in.D2, 24), in.Seed)
	case genGrid3D:
		return sparse.Grid3D(dim(in.D1, 8), dim(in.D2, 8), dim(in.D3, 8), in.Seed)
	case genDG2D:
		return sparse.DG2D(dim(in.D1, 8), dim(in.D2, 8), dim(in.D4, 5), in.Seed)
	case genFE3D:
		return sparse.FE3D(dim(in.D1, 5), dim(in.D2, 5), dim(in.D3, 5), dim(in.D4, 3), in.Seed)
	case genBanded:
		return sparse.Banded(dim(in.D1, 600), int(in.D2%12), in.Seed)
	}
	return sparse.RandomSym(dim(in.D1, 600), int(in.D2%8), in.Seed)
}

// FuzzOrdering holds the graph orderings to their map-based oracles: graph
// nested dissection, minimum degree and RCM must each return a permutation,
// and exactly the oracle's.
func FuzzOrdering(f *testing.F) {
	for _, in := range orderingCorpus {
		f.Add(in.Gen, in.D1, in.D2, in.D3, in.D4, in.Seed, in.Leaf)
	}
	f.Fuzz(func(t *testing.T, gen, d1, d2, d3, d4 uint8, seed int64, leaf uint8) {
		checkOrdering(t, &orderingInput{gen, d1, d2, d3, d4, seed, leaf})
	})
}

func checkOrdering(t *testing.T, in *orderingInput) {
	m := in.matrix()
	g := adjacency(m.A)
	adj := lists(g)
	leaf := int(in.Leaf % 64)
	for _, c := range []struct {
		name      string
		got, want []int
	}{
		{"graphND", graphND(g, leaf), graphNDOracle(adj, leaf)},
		{"minDegree", minDegree(g), minDegreeOracle(adj)},
		{"RCM", reverseCuthillMcKee(g), rcmOracle(adj)},
	} {
		label := fmt.Sprintf("%s on %s %+v", c.name, m.Name, *in)
		if !IsPermutation(c.got) || len(c.got) != m.A.N {
			t.Fatalf("%s: not a permutation", label)
		}
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("%s: differs from its oracle", label)
		}
	}
}

// orderingCorpus seeds FuzzOrdering: every class at two shapes, under the
// leaf size Compute uses, a small one, and 0 (every piece is split until a
// split fails).
var orderingCorpus = func() []orderingInput {
	shapes := []orderingInput{
		{Gen: genGrid2D, D1: 24, D2: 24, Seed: 1},
		{Gen: genGrid2D, D1: 17, D2: 5, Seed: 2},
		{Gen: genGrid3D, D1: 8, D2: 7, D3: 6, Seed: 3},
		{Gen: genGrid3D, D1: 3, D2: 1, D3: 8, Seed: 4},
		{Gen: genDG2D, D1: 8, D2: 6, D4: 4, Seed: 5},
		{Gen: genDG2D, D1: 3, D2: 8, D4: 2, Seed: 6},
		{Gen: genFE3D, D1: 5, D2: 5, D3: 4, D4: 3, Seed: 7},
		{Gen: genFE3D, D1: 4, D2: 2, D3: 5, D4: 1, Seed: 8},
		{Gen: genBanded, D1: 0, D2: 3, Seed: 9},
		{Gen: genBanded, D1: 77, D2: 0, Seed: 10},
		{Gen: genRandomSym, D1: 0, D2: 6, Seed: 11},
		{Gen: genRandomSym, D1: 250, D2: 2, Seed: 12},
	}
	var out []orderingInput
	for _, s := range shapes {
		for _, leaf := range []uint8{32, 5, 0} {
			in := s
			in.Leaf = leaf
			out = append(out, in)
		}
	}
	return out
}()
