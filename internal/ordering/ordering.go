// Package ordering provides fill-reducing orderings for structurally
// symmetric sparse matrices: Reverse Cuthill–McKee, nested dissection
// (general-graph BFS separators and geometric grid separators), and a
// quotient-graph minimum-degree ordering.
//
// The graph orderings read one CSR adjacency of the pattern and keep their
// sets in flat arrays, not maps: a stamp for membership, a level per vertex,
// slices for minimum degree's lists. Degrees are set sizes, ties go to the
// smallest id, BFS follows adjacency order and splits keep vertex order, so
// the map-based routines they replaced (the test oracles) agree exactly.
//
// A permutation perm is encoded as old index -> new index: row/column v of
// the original matrix becomes row/column perm[v] of the permuted matrix,
// matching sparse.CSC.Permute.
package ordering

import (
	"fmt"
	"math"
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
		return reverseCuthillMcKee(adjacency(a))
	case NestedDissection:
		if geom != nil && geom.Nodes()*geom.DofsPerNode == a.N {
			return geometricND(geom)
		}
		return graphND(adjacency(a), 32)
	case MinimumDegree:
		return minDegree(adjacency(a))
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

// graph is a symmetric pattern's adjacency in CSR form: v's neighbours are
// adj[off[v]:off[v+1]], in the order of v's CSC column, without v.
type graph struct{ off, adj []int }

// adjacency is the graph of a's pattern, which must be structurally symmetric.
func adjacency(a *sparse.CSC) graph {
	g := graph{off: make([]int, a.N+1), adj: make([]int, 0, a.NNZ())}
	for j := 0; j < a.N; j++ {
		for _, i := range a.RowIdx[a.ColPtr[j]:a.ColPtr[j+1]] {
			if i != j {
				g.adj = append(g.adj, i)
			}
		}
		g.off[j+1] = len(g.adj)
	}
	return g
}

func (g graph) n() int           { return len(g.off) - 1 }
func (g graph) nbrs(v int) []int { return g.adj[g.off[v]:g.off[v+1]] }
func (g graph) degree(v int) int { return g.off[v+1] - g.off[v] }

// walk is the working memory of the graph walks, sized once per ordering.
// A walk sees the vertices whose stamp is cur (all of them while cur is 0);
// level is -1 on every vertex but those of the last walk, left in queue.
type walk struct {
	g                        graph
	stamp, level, queue, tmp []int
	counts                   []int // vertices per level, for bisect
	cur                      int
}

func newWalk(g graph) *walk {
	n := g.n()
	w := &walk{g: g, stamp: make([]int, n), level: make([]int, n), queue: make([]int, 0, n), tmp: make([]int, n)}
	for v := range w.level {
		w.level[v] = -1
	}
	return w
}

// bfs visits the stamped vertices reachable from root breadth first, in
// adjacency order, leaving them in queue with their levels set, and returns
// the farthest: the first reached on the last level or, byDegree, the one of
// least degree there.
func (w *walk) bfs(root int, byDegree bool) (far int) {
	for _, v := range w.queue {
		w.level[v] = -1
	}
	w.queue = append(w.queue[:0], root)
	w.level[root] = 0
	far = root
	for h := 0; h < len(w.queue); h++ {
		v := w.queue[h]
		if lv, lf := w.level[v], w.level[far]; lv > lf || byDegree && lv == lf && w.g.degree(v) < w.g.degree(far) {
			far = v
		}
		for _, u := range w.g.nbrs(v) {
			if w.stamp[u] == w.cur && w.level[u] < 0 {
				w.level[u] = w.level[v] + 1
				w.queue = append(w.queue, u)
			}
		}
	}
	return far
}

// reverseCuthillMcKee orders the graph breadth-first from a pseudo-
// peripheral vertex of each connected component, neighbors by increasing
// degree, then reverses — the classical RCM bandwidth-reducing ordering.
func reverseCuthillMcKee(g graph) []int {
	n := g.n()
	w := newWalk(g)
	visited := make([]bool, n)
	order := make([]int, 0, n) // also the BFS queue: order[head:] is still to visit
	head := 0
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := w.pseudoPeripheral(start)
		visited[root] = true
		order = append(order, root)
		for ; head < len(order); head++ {
			first := len(order)
			for _, u := range g.nbrs(order[head]) {
				if !visited[u] {
					visited[u] = true
					order = append(order, u)
				}
			}
			nbrs := order[first:]
			sort.Slice(nbrs, func(i, j int) bool { return g.degree(nbrs[i]) < g.degree(nbrs[j]) })
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
func (w *walk) pseudoPeripheral(start int) int {
	v, lastEcc := start, -1
	for range 8 {
		far := w.bfs(v, true)
		ecc := w.level[far]
		if ecc <= lastEcc {
			break
		}
		lastEcc, v = ecc, far
	}
	return v
}

// graphND is a general-graph nested dissection: recursively split each
// piece with a BFS level-set vertex separator; separator vertices are
// numbered last. Pieces at or below leafSize are ordered locally with
// minimum degree. A piece is a range of one vertex array, which a split
// reorders in place keeping each part in order, so every piece is in
// ascending id order.
func graphND(g graph, leafSize int) []int {
	n := g.n()
	w, md := newWalk(g), newMinDeg(g)
	perm := make([]int, n)
	next := n // numbers are assigned from the back (separators last)
	var rec func(vs []int)
	rec = func(vs []int) {
		nl, nr := 0, 0
		if len(vs) > leafSize {
			nl, nr = w.bisect(vs)
		}
		if nl == 0 {
			// A leaf, or no useful separator (e.g. a clique): local MD
			// into the range [next-len, next).
			next -= len(vs)
			md.order(vs, perm, next)
			return
		}
		// Number separator last, then recurse on halves.
		sep := vs[nl+nr:]
		for i := len(sep) - 1; i >= 0; i-- {
			next--
			perm[sep[i]] = next
		}
		rec(vs[nl : nl+nr])
		rec(vs[:nl])
	}
	rec(Identity(n))
	if next != 0 {
		panic("ordering: graphND did not number all vertices")
	}
	return perm
}

// bisect splits the piece vs with a BFS level-set separator: the levels of
// a BFS from the far end of a first one, cut at the level that best trades
// separator size against balance. It reorders vs to left, right, separator
// — each part in vs's order, vertices the BFS did not reach (another
// component) on the left — and returns the sizes of the first two, or
// leaves vs as it was and returns 0, 0 when a part would be empty.
func (w *walk) bisect(vs []int) (nl, nr int) {
	w.cur++
	for _, v := range vs {
		w.stamp[v] = w.cur
	}
	far := w.bfs(vs[0], false)
	w.bfs(far, false) // the second sweep, from the far end, improves the cut
	reached := len(w.queue)
	maxLv := w.level[w.queue[reached-1]]
	if maxLv == 0 {
		// Single BFS level: likely a clique or star; no separator found.
		return 0, 0
	}
	counts := slices.Grow(w.counts[:0], maxLv+1)[:maxLv+1]
	clear(counts)
	w.counts = counts
	for _, v := range w.queue {
		counts[w.level[v]]++
	}
	// Choose the level whose cut best balances the halves. Score: separator
	// size (counts[l+1]) plus imbalance penalty.
	bestLevel, bestScore := -1, math.MaxInt
	for l, below := 0, 0; l < maxLv; l++ {
		below += counts[l]
		imbalance := reached - counts[l+1] - 2*below
		if score := counts[l+1]*4 + max(imbalance, -imbalance); score < bestScore {
			bestScore, bestLevel = score, l
		}
	}
	sepLevel := bestLevel + 1
	nl = len(vs) - reached
	for _, c := range counts[:sepLevel] {
		nl += c
	}
	nr = len(vs) - nl - counts[sepLevel]
	if nr == 0 {
		return 0, 0
	}
	at := [3]int{0, nl, nl + nr} // where the next left, right, separator vertex goes
	for _, v := range w.tmp[:copy(w.tmp, vs)] {
		part := 0 // level < sepLevel, or -1: unreached
		if l := w.level[v]; l == sepLevel {
			part = 2
		} else if l > sepLevel {
			part = 1
		}
		vs[at[part]] = v
		at[part]++
	}
	return nl, nr
}

// geometricND orders a regular grid with recursive coordinate-plane
// separators (the textbook nested dissection on grids). Bundled dofs per
// node stay contiguous, which also makes them natural supernode seeds.
func geometricND(g *sparse.Geometry) []int {
	n := g.Nodes()
	perm := make([]int, n*g.DofsPerNode)
	next := n                                     // node numbers assigned from the back
	type box struct{ x0, x1, y0, y1, z0, z1 int } // half-open ranges
	assign := func(node int) {
		next--
		for d := 0; d < g.DofsPerNode; d++ {
			perm[node*g.DofsPerNode+d] = next*g.DofsPerNode + d
		}
	}
	fill := func(b box) {
		for z := b.z1 - 1; z >= b.z0; z-- {
			for y := b.y1 - 1; y >= b.y0; y-- {
				for x := b.x1 - 1; x >= b.x0; x-- {
					assign(g.NodeIndex(x, y, z))
				}
			}
		}
	}
	var rec func(b box)
	rec = func(b box) {
		dx, dy, dz := b.x1-b.x0, b.y1-b.y0, b.z1-b.z0
		if dx <= 0 || dy <= 0 || dz <= 0 {
			return
		}
		if dx*dy*dz <= 8 || (dx <= 2 && dy <= 2 && dz <= 2) {
			fill(b)
			return
		}
		// Split along the longest axis; the separator plane is numbered last.
		lo, sep, hi := b, b, b
		switch {
		case dx >= dy && dx >= dz:
			mid := b.x0 + dx/2
			lo.x1, sep.x0, sep.x1, hi.x0 = mid, mid, mid+1, mid+1
		case dy >= dz:
			mid := b.y0 + dy/2
			lo.y1, sep.y0, sep.y1, hi.y0 = mid, mid, mid+1, mid+1
		default:
			mid := b.z0 + dz/2
			lo.z1, sep.z0, sep.z1, hi.z0 = mid, mid, mid+1, mid+1
		}
		fill(sep)
		rec(hi)
		rec(lo)
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
func minDegree(g graph) []int {
	perm := make([]int, g.n())
	newMinDeg(g).order(Identity(g.n()), perm, 0)
	return perm
}

// A minDegree vertex is outside until it is ordered, then a variable until
// eliminated, then an element until a later element absorbs it.
const (
	outside int8 = iota
	variable
	element
	absorbed
)

// minDeg is minDegree's working memory, by vertex id. graphND orders each
// leaf piece on one in turn; a piece's vertices leave it eliminated.
type minDeg struct {
	g              graph
	deg, mark, buf []int
	state          []int8
	// elems[v] lists the elements on whose boundary variable v lies; an
	// absorbed one drops out when the list is next read. bnd[e] is element
	// e's boundary: the variables its elimination reached.
	elems, bnd [][]int
	tag        int // mark[v] == tag: v is in the set being built
}

func newMinDeg(g graph) *minDeg {
	n := g.n()
	return &minDeg{g: g, deg: make([]int, n), mark: make([]int, n), state: make([]int8, n),
		elems: make([][]int, n), bnd: make([][]int, n)}
}

// order numbers the vertices vs, which must be in ascending order, base,
// base+1, … in the minimum-degree elimination order of the subgraph they
// induce. A variable's variable neighbours are its graph neighbours not yet
// eliminated; its degree is the size of its reach.
func (m *minDeg) order(vs, perm []int, base int) {
	for _, v := range vs {
		m.state[v] = variable
	}
	// Cached degrees: a vertex's reachable set only changes when it lies on
	// the boundary of the element just formed, so degrees are recomputed
	// for exactly those vertices after each elimination.
	for _, v := range vs {
		m.deg[v] = m.degree(v)
	}
	for k := range vs {
		// Pick the minimum-degree variable (ties: smallest id, for
		// determinism).
		v, best := -1, math.MaxInt
		for _, u := range vs {
			if m.deg[u] < best && m.state[u] == variable {
				v, best = u, m.deg[u]
			}
		}
		perm[v] = base + k
		// v becomes an element with boundary = its reachable set, absorbing
		// the elements it was on (their boundaries are now subsets of its).
		m.bnd[v] = m.reach(v, nil)
		m.state[v] = element
		for _, e := range m.elems[v] {
			m.state[e], m.bnd[e] = absorbed, nil
		}
		for _, u := range m.bnd[v] {
			m.elems[u] = append(m.elems[u], v)
			m.deg[u] = m.degree(u)
		}
	}
}

// reach appends to out the variables v reaches — its variable neighbours and
// the boundaries of its elements — each once and without v, and drops the
// absorbed elements from v's list.
func (m *minDeg) reach(v int, out []int) []int {
	m.tag++
	m.mark[v] = m.tag
	for _, u := range m.g.nbrs(v) {
		if m.state[u] == variable && m.mark[u] != m.tag {
			m.mark[u] = m.tag
			out = append(out, u)
		}
	}
	live := m.elems[v][:0]
	for _, e := range m.elems[v] {
		if m.state[e] == absorbed {
			continue
		}
		live = append(live, e)
		for _, u := range m.bnd[e] {
			if m.state[u] == variable && m.mark[u] != m.tag {
				m.mark[u] = m.tag
				out = append(out, u)
			}
		}
	}
	m.elems[v] = live
	return out
}

func (m *minDeg) degree(v int) int {
	m.buf = m.reach(v, m.buf[:0])
	return len(m.buf)
}
