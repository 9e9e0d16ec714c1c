// Package etree performs the symbolic analysis phase of the solver on a
// structurally symmetric matrix: elimination tree construction (Liu's
// algorithm), tree postordering, column counts of L by row subtrees,
// fundamental supernode detection with relaxed amalgamation, and the
// supernodal block pattern of L, merged along the supernodal elimination
// tree, that the numeric factorization and both selected inversion
// implementations consume. Beside its output it needs O(n) scratch.
package etree

import (
	"sort"

	"pselinv/internal/sparse"
)

// parents computes the elimination tree of a structurally symmetric matrix
// permuted by order (old→new, nil for none) using Liu's algorithm with path
// compression; the permuted matrix is never formed. parent[j] == -1 marks a
// root.
func parents(a *sparse.CSC, order []int) []int {
	n := a.N
	parent := make([]int, n)
	ancestor := make([]int, n)
	col := make([]int, n) // col[j]: the column of a that is column j of the permuted matrix
	for j := range col {
		col[j] = j
	}
	for old, j := range order {
		col[j] = old
	}
	for j := 0; j < n; j++ {
		parent[j] = -1
		ancestor[j] = -1
		for k := a.ColPtr[col[j]]; k < a.ColPtr[col[j]+1]; k++ {
			i := a.RowIdx[k]
			if order != nil {
				i = order[i]
			}
			if i >= j {
				continue
			}
			// Walk from i up to the root of its current subtree, compressing.
			for r := i; r != -1 && r != j; {
				next := ancestor[r]
				ancestor[r] = j
				if next == -1 {
					parent[r] = j
				}
				r = next
			}
		}
	}
	return parent
}

// postorder returns a permutation old->new that relabels vertices in a
// postorder traversal of the forest. Roots and children are visited in
// ascending order for determinism.
func postorder(parent []int) []int {
	n := len(parent)
	// Children as linked lists, head[p] -> next[c] -> ...; linking in
	// descending order leaves each list ascending.
	head, next := make([]int, n), make([]int, n)
	for v := range head {
		head[v] = -1
	}
	for v := n - 1; v >= 0; v-- {
		if p := parent[v]; p >= 0 {
			next[v], head[p] = head[p], v
		}
	}
	perm := make([]int, n)
	label := 0
	// Iterative DFS to avoid deep recursion on path graphs; head[v] is
	// consumed as v's cursor over its children.
	stack := make([]int, 0, n)
	for r := 0; r < n; r++ {
		if parent[r] >= 0 {
			continue
		}
		for stack = append(stack, r); len(stack) > 0; {
			v := stack[len(stack)-1]
			if c := head[v]; c >= 0 {
				head[v] = next[c]
				stack = append(stack, c)
				continue
			}
			perm[v] = label
			label++
			stack = stack[:len(stack)-1]
		}
	}
	if label != n {
		panic("etree: postorder did not reach all vertices (cycle in parent array?)")
	}
	return perm
}

// colCounts returns nnz(L(:,j)), diagonal included, for each column j of
// the structurally symmetric a with elimination tree parent. Row i of L is
// i's row subtree: the etree paths from each k < i with a(i,k) != 0 up to i.
// Walking those paths, each vertex marked once per row, visits every entry
// of L once: O(nnz(L)) time. A vertex's parent, mark and count share one
// struct, so each step of a walk touches one cache line, not three.
func colCounts(a *sparse.CSC, parent []int) []int {
	type vertex struct{ parent, mark, count int }
	vs := make([]vertex, a.N)
	for j, p := range parent {
		vs[j] = vertex{parent: p, count: 1}
	}
	for i := range vs {
		for _, j := range a.RowIdx[a.ColPtr[i]:a.ColPtr[i+1]] {
			for ; j < i && vs[j].mark != i; j = vs[j].parent {
				vs[j].mark = i
				vs[j].count++
			}
		}
	}
	count := make([]int, a.N)
	for j := range vs {
		count[j] = vs[j].count
	}
	return count
}

// Partition is a supernode partition of the columns 0..n-1 into contiguous
// ranges.
type Partition struct {
	Start   []int // len NumSnodes+1; supernode K spans columns [Start[K], Start[K+1])
	SnodeOf []int // column -> supernode index
}

// NumSnodes returns the number of supernodes.
func (p *Partition) NumSnodes() int { return len(p.Start) - 1 }

// Width returns the number of columns in supernode k.
func (p *Partition) Width(k int) int { return p.Start[k+1] - p.Start[k] }

// Cols returns the half-open column range of supernode k.
func (p *Partition) Cols(k int) (lo, hi int) { return p.Start[k], p.Start[k+1] }

// FromStarts builds a Partition from supernode start columns (which must
// begin at 0, be strictly increasing, and end at n).
func FromStarts(starts []int, n int) *Partition {
	if len(starts) == 0 || starts[0] != 0 || starts[len(starts)-1] != n {
		panic("etree: invalid supernode starts")
	}
	p := &Partition{Start: starts, SnodeOf: make([]int, n)}
	for k := 0; k+1 < len(starts); k++ {
		if starts[k+1] <= starts[k] {
			panic("etree: empty supernode")
		}
		for j := starts[k]; j < starts[k+1]; j++ {
			p.SnodeOf[j] = k
		}
	}
	return p
}

// Supernodes detects fundamental supernodes (column j+1 merges with j when
// parent(j) == j+1 and count(j+1) == count(j)-1), with two practical
// extensions: relax allows up to that many rows of artificial fill per
// merged column (relaxed amalgamation), and maxWidth caps supernode width
// (0 means unlimited). The matrix must be postordered.
func Supernodes(parent, colCount []int, relax, maxWidth int) *Partition {
	n := len(parent)
	starts := []int{0}
	width := 1
	for j := 1; j < n; j++ {
		fundamental := parent[j-1] == j && colCount[j] >= colCount[j-1]-1-relax && colCount[j] <= colCount[j-1]-1+relax
		if colCount[j] == colCount[j-1]-1 && parent[j-1] == j {
			fundamental = true
		}
		if fundamental && (maxWidth <= 0 || width < maxWidth) {
			width++
			continue
		}
		starts = append(starts, j)
		width = 1
	}
	starts = append(starts, n)
	return FromStarts(starts, n)
}

// BlockPattern holds the supernodal block structure of L (equivalently of
// the selected inverse), closed under right-looking elimination so that for
// every supernode K and I, J ∈ C(K) the block (max(I,J), min(I,J)) is
// present — the invariant the selected inversion algorithms rely on.
type BlockPattern struct {
	Part *Partition
	// RowsOf[K] lists, sorted ascending, the block rows I >= K with block
	// (I, K) structurally nonzero (the diagonal block K is always first).
	RowsOf [][]int
	// SnParent is the supernodal elimination tree: the first off-diagonal
	// block row, or -1 for roots.
	SnParent []int

	// The factor layout, immutable once NewBlockPattern has built it:
	// rowPtr[K] is K's first Slot; off[id] is the slab offset of lower block
	// id, a prefix sum ending in the lower half's size; uoff[K] is the offset of
	// K's first U block within the upper half, a prefix sum ending in its size.
	rowPtr, off, uoff []int
}

// NumSnodes returns the number of supernodes.
func (bp *BlockPattern) NumSnodes() int { return bp.Part.NumSnodes() }

// Slot returns the slot of block (i, j) in the layout of 2·NNZBlocks()
// blocks the factor and the selected inverse share. Block (i, k), i >= k, has
// slot — its id — rowPtr[k] plus the position of i in RowsOf[k], so supernode
// k's ids run on from Slot(k, k) and all of them fill [0, NNZBlocks()); its
// upper mirror (k, i) has slot NNZBlocks() + id. The boolean is false for a
// structural zero.
func (bp *BlockPattern) Slot(i, j int) (int, bool) {
	half := 0
	if i < j {
		i, j, half = j, i, bp.NNZBlocks()
	}
	rows := bp.RowsOf[j]
	p := sort.SearchInts(rows, i)
	return half + bp.rowPtr[j] + p, p < len(rows) && rows[p] == i
}

// Block returns the block (i, j) at slot s, the inverse of Slot.
func (bp *BlockPattern) Block(s int) (i, j int) {
	id := s % bp.NNZBlocks()
	k := sort.SearchInts(bp.rowPtr, id+1) - 1 // the last supernode whose ids start at or before id
	if i = bp.RowsOf[k][id-bp.rowPtr[k]]; s != id {
		return k, i // an upper mirror
	}
	return i, k
}

// FactorOffset returns where block (RowsOf[k][p], k) or, with upper set and
// p > 0, its mirror (k, RowsOf[k][p]) sits in a factor slab, in scalars. The
// slab holds the lower half — supernode after supernode its diagonal block,
// then its L_{·,K} blocks — and behind it the upper half, supernode after
// supernode the U_{K,·} blocks; column-major, in RowsOf order, without a gap.
// The lower half is all a factorization of symmetric values stores.
func (bp *BlockPattern) FactorOffset(k, p int, upper bool) int {
	first := bp.rowPtr[k]
	if upper {
		return bp.FactorSize(false) + bp.uoff[k] + bp.off[first+p] - bp.off[first+1]
	}
	return bp.off[first+p]
}

// FactorSize returns the scalar length of a factor slab on this pattern: the
// lower half, which is NNZScalars(), and with upper set the upper half too.
func (bp *BlockPattern) FactorSize(upper bool) int {
	n := bp.off[len(bp.off)-1]
	if upper {
		n += bp.uoff[len(bp.uoff)-1]
	}
	return n
}

// Struct returns the off-diagonal block rows of supernode k: the set C(K)
// of the paper's Algorithm 1.
func (bp *BlockPattern) Struct(k int) []int { return bp.RowsOf[k][1:] }

// NNZBlocks returns the total number of stored lower-triangular blocks
// (including diagonal blocks).
func (bp *BlockPattern) NNZBlocks() int { return bp.rowPtr[len(bp.rowPtr)-1] }

// FactorFlops estimates the flop count of a right-looking block LU on this
// pattern (diagonal factorizations, panel solves, Schur updates) — used by
// the timing simulator's factorization reference when no numeric
// factorization is available.
func (bp *BlockPattern) FactorFlops() int64 {
	var flops int64
	for k := 0; k < bp.NumSnodes(); k++ {
		w := int64(bp.Part.Width(k))
		flops += 2 * w * w * w / 3
		c := bp.Struct(k)
		var below int64
		for _, i := range c {
			wi := int64(bp.Part.Width(i))
			below += wi
			flops += 2 * w * w * wi // two triangular solves
		}
		flops += 2 * below * below * w // Schur update
	}
	return flops
}

// NNZScalars returns the scalar nonzero count of the lower block pattern.
func (bp *BlockPattern) NNZScalars() int64 {
	var t int64
	for k, rows := range bp.RowsOf {
		w := int64(bp.Part.Width(k))
		for _, i := range rows {
			t += w * int64(bp.Part.Width(i))
		}
	}
	return t
}

// NewBlockPattern computes the closed block pattern of the structurally
// symmetric matrix a under the given supernode partition. Taken in ascending
// order, K's rows are K, the supernodes of a's entries below K's columns,
// and every child's rows above K (a child C has SnParent[C] = K). Any other
// supernode whose rows couple K to a row above it reaches K through the
// chain of parents between them, each of which holds that row, so the merge
// is exactly the right-looking closure. One mark array and one sort per
// supernode.
func NewBlockPattern(a *sparse.CSC, part *Partition) *BlockPattern {
	ns := part.NumSnodes()
	bp := &BlockPattern{Part: part, RowsOf: make([][]int, ns), SnParent: make([]int, ns)}
	// Children of the supernodal etree as linked lists, head[K] -> next[C].
	head, next, mark := make([]int, ns), make([]int, ns), make([]int, ns)
	for k := range head {
		head[k], mark[k] = -1, -1
	}
	var rows []int
	for k := 0; k < ns; k++ {
		rows = append(rows[:0], k)
		lo, hi := part.Cols(k)
		for p := a.ColPtr[lo]; p < a.ColPtr[hi]; p++ {
			if i := part.SnodeOf[a.RowIdx[p]]; i > k && mark[i] != k {
				mark[i] = k
				rows = append(rows, i)
			}
		}
		for c := head[k]; c >= 0; c = next[c] {
			for _, i := range bp.RowsOf[c][2:] {
				if mark[i] != k {
					mark[i] = k
					rows = append(rows, i)
				}
			}
		}
		sort.Ints(rows[1:])
		bp.RowsOf[k] = append([]int(nil), rows...)
		bp.SnParent[k] = -1
		if len(rows) > 1 {
			p := rows[1]
			bp.SnParent[k], next[k], head[p] = p, head[p], k
		}
	}
	bp.rowPtr, bp.off, bp.uoff = make([]int, ns+1), []int{0}, make([]int, ns+1)
	for k, rows := range bp.RowsOf {
		bp.rowPtr[k+1] = bp.rowPtr[k] + len(rows)
		for _, i := range rows {
			bp.off = append(bp.off, bp.off[len(bp.off)-1]+part.Width(k)*part.Width(i))
		}
		// K's U blocks are as large as its L blocks, which end where off does now.
		bp.uoff[k+1] = bp.uoff[k] + bp.off[len(bp.off)-1] - bp.off[bp.rowPtr[k]+1]
	}
	return bp
}

// Analysis bundles the outcome of the full symbolic phase.
type Analysis struct {
	// PermTotal maps original indices to final indices (fill ordering
	// composed with postorder).
	PermTotal []int
	// A is the matrix permuted by PermTotal.
	A *sparse.CSC
	// Parent is the scalar elimination tree of A.
	Parent []int
	// ColCount is nnz(L(:,j)) per column of A.
	ColCount []int
	// BP is the supernodal block pattern of L.
	BP *BlockPattern
}

// Options controls Analyze.
type Options struct {
	Relax    int // relaxed amalgamation slack rows (0 = fundamental only)
	MaxWidth int // supernode width cap, 0 = unlimited
}

// Analyze runs the symbolic phase on a matrix that has already been
// permuted by a fill-reducing ordering: elimination tree, postorder
// relabeling, column counts, supernode detection, block pattern. The pattern
// of a must be structurally symmetric. fillPerm is the ordering already
// applied (recorded so PermTotal maps truly-original indices); pass the
// identity when a is in original order.
func Analyze(a *sparse.CSC, fillPerm []int, opt Options) *Analysis {
	return analyze(a, nil, fillPerm, opt)
}

// AnalyzeOrder is Analyze of a in its original order under the fill ordering
// fillPerm: it finds the elimination tree of the ordered pattern through the
// permutation and permutes a once, by PermTotal. Analysis.A is Analyze's of
// a.Permute(fillPerm), bit for bit.
func AnalyzeOrder(a *sparse.CSC, fillPerm []int, opt Options) *Analysis {
	return analyze(a, fillPerm, fillPerm, opt)
}

// analyze is the symbolic phase of a permuted by order (nil for a already in
// fill order), whose fill ordering is fillPerm.
func analyze(a *sparse.CSC, order, fillPerm []int, opt Options) *Analysis {
	post := postorder(parents(a, order))
	total := make([]int, len(fillPerm))
	for orig, mid := range fillPerm {
		total[orig] = post[mid]
	}
	perm := total
	if order == nil {
		perm = post
	}
	ap := a.Permute(perm)
	parent := parents(ap, nil)
	counts := colCounts(ap, parent)
	part := Supernodes(parent, counts, opt.Relax, opt.MaxWidth)
	bp := NewBlockPattern(ap, part)
	return &Analysis{PermTotal: total, A: ap, Parent: parent, ColCount: counts, BP: bp}
}
