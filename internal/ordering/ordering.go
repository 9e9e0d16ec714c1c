// Package ordering provides fill-reducing orderings for structurally
// symmetric sparse matrices: Reverse Cuthill–McKee, nested dissection
// (general-graph BFS separators and geometric grid separators), and a
// quotient-graph minimum-degree ordering.
//
// A permutation perm is encoded as old index -> new index: row/column v of
// the original matrix becomes row/column perm[v] of the permuted matrix,
// matching sparse.CSC.Permute.
package ordering

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"pselinv/internal/sparse"
)

// Method identifies an ordering algorithm.
type Method int

const (
	// Natural keeps the input ordering.
	Natural Method = iota
	// RCM is Reverse Cuthill–McKee (bandwidth reduction).
	RCM
	// NestedDissection uses recursive BFS vertex separators (or geometric
	// separators when a grid geometry is supplied to Compute).
	NestedDissection
	// MinimumDegree is a quotient-graph minimum external degree ordering.
	MinimumDegree
)

// methodNames are the methods' flag and request names, by Method.
var methodNames = [...]string{Natural: "natural", RCM: "rcm", NestedDissection: "nd", MinimumDegree: "mmd"}

// String names the method.
func (m Method) String() string {
	if m >= 0 && int(m) < len(methodNames) {
		return methodNames[m]
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Parse resolves a flag or request value to a Method. Unknown names are an
// error whose message lists the valid ones.
func Parse(name string) (Method, error) {
	if i := slices.Index(methodNames[:], strings.ToLower(strings.TrimSpace(name))); i >= 0 {
		return Method(i), nil
	}
	return 0, fmt.Errorf("unknown ordering %q (valid: %s)", name, strings.Join(methodNames[:], "|"))
}

// Compute returns the permutation for the requested method. geom may be nil;
// when present and the method is NestedDissection, geometric separators are
// used (better quality on regular grids, and independent of graph
// connectivity quirks).
func Compute(m Method, a *sparse.CSC, geom *sparse.Geometry) []int {
	switch m {
	case Natural:
		return Identity(a.N)
	case RCM:
		return reverseCuthillMcKee(a.Adjacency())
	case NestedDissection:
		if geom != nil && geom.Nodes()*geom.DofsPerNode == a.N {
			return geometricND(geom)
		}
		return graphND(a.Adjacency(), 32)
	case MinimumDegree:
		return minDegree(a.Adjacency())
	}
	panic(fmt.Sprintf("ordering: unknown method %d", int(m)))
}

// Identity returns the identity permutation of length n.
func Identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// IsPermutation reports whether p is a valid permutation of 0..len(p)-1.
func IsPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Inverse returns the inverse permutation: Inverse(p)[p[i]] == i.
func Inverse(p []int) []int {
	inv := make([]int, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// reverseCuthillMcKee orders the graph breadth-first from a pseudo-
// peripheral vertex of each connected component, neighbors by increasing
// degree, then reverses — the classical RCM bandwidth-reducing ordering.
func reverseCuthillMcKee(adj [][]int) []int {
	n := len(adj)
	visited := make([]bool, n)
	order := make([]int, 0, n)
	deg := func(v int) int { return len(adj[v]) }
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := pseudoPeripheral(adj, start)
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

// pseudoPeripheral finds an approximate peripheral vertex of the component
// containing start by repeated BFS to the farthest minimum-degree vertex.
func pseudoPeripheral(adj [][]int, start int) int {
	v := start
	lastEcc := -1
	for iter := 0; iter < 8; iter++ {
		levels, far := bfsLevels(adj, v)
		ecc := levels[far]
		if ecc <= lastEcc {
			break
		}
		lastEcc = ecc
		v = far
	}
	return v
}

// bfsLevels returns BFS levels from root (-1 for unreachable) and the
// farthest reached vertex (ties broken by smallest degree).
func bfsLevels(adj [][]int, root int) (levels []int, far int) {
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

// graphND is a general-graph nested dissection: recursively split each
// piece with a BFS level-set vertex separator; separator vertices are
// numbered last. Pieces at or below leafSize are ordered locally with
// minimum degree.
func graphND(adj [][]int, leafSize int) []int {
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
			local := inducedMinDegree(adj, vertices)
			// local[i] is a position 0..len-1; map into the global range
			// [next-len, next).
			base := next - len(vertices)
			for idx, v := range vertices {
				perm[v] = base + local[idx]
			}
			next = base
			return
		}
		left, right, sep := bisect(adj, vertices)
		if len(sep) == 0 || len(left) == 0 || len(right) == 0 {
			// No useful separator (e.g. a clique): fall back to local MD.
			local := inducedMinDegree(adj, vertices)
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
		panic("ordering: graphND did not number all vertices")
	}
	return perm
}

// bisect splits the induced subgraph on vertices into (left, right,
// separator) via a BFS level-set cut at the median level from a
// pseudo-peripheral vertex. Disconnected leftovers are assigned to the
// smaller side.
func bisect(adj [][]int, vertices []int) (left, right, sep []int) {
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

// inducedMinDegree orders the induced subgraph on vertices with minimum
// degree and returns positions: result[i] is the position (0-based) of
// vertices[i] in the local elimination order.
func inducedMinDegree(adj [][]int, vertices []int) []int {
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
	perm := minDegree(local)
	return perm
}

// geometricND orders a regular grid with recursive coordinate-plane
// separators (the textbook nested dissection on grids). Bundled dofs per
// node stay contiguous, which also makes them natural supernode seeds.
func geometricND(g *sparse.Geometry) []int {
	n := g.Nodes()
	perm := make([]int, n*g.DofsPerNode)
	next := n                                     // node numbers assigned from the back
	type box struct{ x0, x1, y0, y1, z0, z1 int } // half-open ranges
	var rec func(b box)
	assign := func(node int) {
		next--
		for d := 0; d < g.DofsPerNode; d++ {
			perm[node*g.DofsPerNode+d] = next*g.DofsPerNode + d
		}
	}
	rec = func(b box) {
		dx, dy, dz := b.x1-b.x0, b.y1-b.y0, b.z1-b.z0
		if dx <= 0 || dy <= 0 || dz <= 0 {
			return
		}
		if dx*dy*dz <= 8 || (dx <= 2 && dy <= 2 && dz <= 2) {
			for z := b.z1 - 1; z >= b.z0; z-- {
				for y := b.y1 - 1; y >= b.y0; y-- {
					for x := b.x1 - 1; x >= b.x0; x-- {
						assign(g.NodeIndex(x, y, z))
					}
				}
			}
			return
		}
		// Split along the longest axis; the separator plane is numbered last.
		switch {
		case dx >= dy && dx >= dz:
			mid := b.x0 + dx/2
			for z := b.z1 - 1; z >= b.z0; z-- {
				for y := b.y1 - 1; y >= b.y0; y-- {
					assign(g.NodeIndex(mid, y, z))
				}
			}
			rec(box{mid + 1, b.x1, b.y0, b.y1, b.z0, b.z1})
			rec(box{b.x0, mid, b.y0, b.y1, b.z0, b.z1})
		case dy >= dz:
			mid := b.y0 + dy/2
			for z := b.z1 - 1; z >= b.z0; z-- {
				for x := b.x1 - 1; x >= b.x0; x-- {
					assign(g.NodeIndex(x, mid, z))
				}
			}
			rec(box{b.x0, b.x1, mid + 1, b.y1, b.z0, b.z1})
			rec(box{b.x0, b.x1, b.y0, mid, b.z0, b.z1})
		default:
			mid := b.z0 + dz/2
			for y := b.y1 - 1; y >= b.y0; y-- {
				for x := b.x1 - 1; x >= b.x0; x-- {
					assign(g.NodeIndex(x, y, mid))
				}
			}
			rec(box{b.x0, b.x1, b.y0, b.y1, mid + 1, b.z1})
			rec(box{b.x0, b.x1, b.y0, b.y1, b.z0, mid})
		}
	}
	rec(box{0, g.NX, 0, g.NY, 0, g.NZ})
	if next != 0 {
		panic("ordering: geometricND did not number all nodes")
	}
	return perm
}

// minDegree is a quotient-graph minimum (external) degree ordering with
// element absorption — the classical MD algorithm (George & Liu) without
// multiple elimination or supervariable detection. Good fill quality at the
// scales this repository targets.
func minDegree(adj [][]int) []int {
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
