// Package core implements the paper's primary contribution: restricted
// collective communication over arbitrary rank subsets built from
// asynchronous point-to-point messages, organized by one of three data
// propagation schemes (§III):
//
//   - Flat-Tree: the root sends to every other participant directly.
//   - Binary-Tree: participants sorted by rank, the ordered list split
//     recursively in halves, the first rank of each half forwarding.
//   - Shifted Binary-Tree: a seeded random circular shift is applied to
//     the sorted participant list before the binary construction, so that
//     concurrent collectives pick different ranks as internal forwarding
//     nodes — the load-balancing heuristic the paper introduces.
//
// Beyond the paper's three schemes, the package adds a topology-aware
// construction (TopoShiftedTree) that consumes a Topology describing
// rank→node placement and keeps tree edges inside nodes — see topo.go and
// DESIGN.md §5j.
//
// The package also provides the full per-supernode communication plan of
// the PSelInv second loop, shared by the goroutine execution engine
// (internal/pselinv) and the discrete-event timing simulator
// (internal/netsim) through the per-rank programs Compile derives. A plan
// holds one tree per shape: its trees are interned by (root, sorted
// participants, the scheme's remaining input), so collectives with equal
// trees share one *Tree. The blocks of C(K) whose broadcasts share a tree
// travel in one message (CollOp.Blks).
package core

import (
	"fmt"
	"slices"
	"strings"
)

// Scheme selects the tree construction used for restricted collectives.
type Scheme int

const (
	// FlatTree is the centralized sender/receiver model (PSelInv v0.7.3).
	FlatTree Scheme = iota
	// BinaryTree is the recursive-halving binary tree.
	BinaryTree
	// ShiftedBinaryTree applies the paper's random circular shift before
	// the binary construction.
	ShiftedBinaryTree
	// TopoShiftedTree is the shifted binary tree made topology-aware: the
	// root-dependent shift is applied within node groups, one leader per
	// occupied node forwards across the inter-node network, and everything
	// else stays on-node. Cross-node edges hit the g-1 minimum for g
	// occupied nodes.
	TopoShiftedTree
)

// schemeNames holds each scheme's name as in the paper and its slug.
var schemeNames = [...][2]string{
	FlatTree:          {"Flat-Tree", "flat"},
	BinaryTree:        {"Binary-Tree", "binary"},
	ShiftedBinaryTree: {"Shifted Binary-Tree", "shifted"},
	TopoShiftedTree:   {"Topo-Shifted-Tree", "toposhifted"},
}

// String names the scheme as in the paper.
func (s Scheme) String() string {
	if s >= 0 && int(s) < len(schemeNames) {
		return schemeNames[s][0]
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Slug returns the short lower-case name used on command-line flags and in
// service requests.
func (s Scheme) Slug() string {
	if s >= 0 && int(s) < len(schemeNames) {
		return schemeNames[s][1]
	}
	return fmt.Sprintf("scheme%d", int(s))
}

// Schemes lists the three schemes evaluated in the paper's figures.
func Schemes() []Scheme { return []Scheme{FlatTree, BinaryTree, ShiftedBinaryTree} }

// AllSchemes lists every scheme constant, in declaration order. Table
// tests range over it so a new enum value cannot silently miss a switch
// arm.
func AllSchemes() []Scheme {
	return []Scheme{FlatTree, BinaryTree, ShiftedBinaryTree, TopoShiftedTree}
}

// SchemeSlugs lists the flag-facing names of every scheme.
func SchemeSlugs() []string {
	all := AllSchemes()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Slug()
	}
	return out
}

// ParseScheme resolves a flag or request value to a Scheme. Unknown names
// are a hard error whose message lists the valid slugs.
func ParseScheme(name string) (Scheme, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	for _, s := range AllSchemes() {
		if n == s.Slug() {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (valid: %s)", name, strings.Join(SchemeSlugs(), "|"))
}

// Tree is a rooted communication tree over a set of participant ranks.
// Broadcast flows root→leaves along the edges; reduction flows
// leaves→root along the same edges.
//
// Every rank builds the same tree on its own from the sorted participant
// list, the root and the shared seed (§III), so a tree is stored as flat
// arrays over that list. A participant's index in Participants() is its
// position; each position holds its parent's position, and the children
// form one CSR (compressed sparse row) array grouped by parent position,
// each group in the order the construction linked it.
type Tree struct {
	Root  int
	parts []int   // participants, sorted ascending
	up    []int32 // up[i]: position of parts[i]'s parent, -1 at the root
	first []int32 // parts[i]'s children are kids[first[i]:first[i+1]]
	kids  []int   // child ranks
}

// Participants returns the sorted participant ranks (including the root).
func (t *Tree) Participants() []int { return t.parts }

// Size returns the number of participants.
func (t *Tree) Size() int { return len(t.parts) }

// Pos returns rank's position in Participants(), or -1 for a
// non-participant.
func (t *Tree) Pos(rank int) int {
	if i, ok := slices.BinarySearch(t.parts, rank); ok {
		return i
	}
	return -1
}

// parentAt returns the parent rank of the participant at position i, -1 for
// the root.
func (t *Tree) parentAt(i int) int {
	if up := t.up[i]; up >= 0 {
		return t.parts[up]
	}
	return -1
}

// Children returns the child ranks of rank in link order (empty for
// leaves, nil for non-participants). The slice is the tree's own storage.
func (t *Tree) Children(rank int) []int {
	if i := t.Pos(rank); i >= 0 {
		return t.childrenAt(i)
	}
	return nil
}

// childrenAt returns the children of the participant at position i, capped
// so that an append cannot overwrite a sibling group.
func (t *Tree) childrenAt(i int) []int { return t.kids[t.first[i]:t.first[i+1]:t.first[i+1]] }

// Depth returns the number of edges on the longest root-to-leaf path.
func (t *Tree) Depth() int {
	depth := 0
	for _, up := range t.up {
		d := 0
		for ; up >= 0; up = t.up[up] {
			d++
		}
		depth = max(depth, d)
	}
	return depth
}

// splitmix64 is the deterministic hash used to derive per-collective shift
// amounts from (seed, op identity) without any communication — the
// "random seed communicated in the preprocessing step" of §III.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTree builds a communication tree over ranks (which must contain root)
// using the given scheme. opKey identifies the collective (e.g. a hash of
// supernode and operation); together with seed it determines the circular
// shift of ShiftedBinaryTree deterministically, so every rank constructs
// the identical tree independently.
func NewTree(scheme Scheme, root int, ranks []int, seed uint64, opKey uint64) *Tree {
	return NewTreeTopo(scheme, root, ranks, seed, opKey, defaultTopology())
}

// NewTreeTopo is the full constructor: NewTree plus the rank→node Topology
// consumed by TopoShiftedTree (the other schemes ignore it). The tree is a
// one-tree plan's: it has storage of its own.
func NewTreeTopo(scheme Scheme, root int, ranks []int, seed uint64, opKey uint64, topo Topology) *Tree {
	b := treeBuilder{ranks: append([]int(nil), ranks...), slots: make([]int32, 2)}
	return b.intern(scheme, root, seed, opKey, topo)
}

// equal reports whether u has t's root, participants, parents and child order.
func (t *Tree) equal(u *Tree) bool {
	return t.Root == u.Root && slices.Equal(t.parts, u.parts) && slices.Equal(t.up, u.up) &&
		slices.Equal(t.first, u.first) && slices.Equal(t.kids, u.kids)
}

// shift is the circular shift ShiftedBinaryTree applies to the m non-root
// participants of collective opKey.
func shift(seed, opKey uint64, m int) int {
	return int(splitmix64(seed^splitmix64(opKey)) % uint64(max(m, 1)))
}

// treeBuilder is the working memory of tree construction. The schemes link
// positions, never ranks: sorted rank order is position order, so a shift or
// permutation of the non-root positions is the same tree as of the ranks. A
// plan reuses one builder, and its scratch tree, across all its trees, and
// keeps in it the trees it has built (intern).
type treeBuilder struct {
	ranks []int   // the next tree's participant list, duplicates allowed
	rest  []int32 // positions of its participants other than the root
	up    []int32 // the tree's parent positions, filled by link
	links []int32 // child positions in link order
	tree  Tree    // the last tree built, whose storage the next reuses

	slots    []int32 // by key hash, open addressing: 1 + index into interned, 0 when empty
	interned []internedTree
	ints     slab[int]   // the interned trees' participants and children
	ix       slab[int32] // their parents and child offsets
	trees    slab[Tree]
}

// internedTree is one of a plan's trees with its key's hash and scheme input.
type internedTree struct {
	t    *Tree
	h, x uint32
}

// intern returns the plan's one tree over b.ranks, rooted at root, for
// collective opKey, so that equal trees of a plan are one pointer. A tree is
// a value of its key: the root, the sorted participants and the scheme's
// remaining input — nothing for Flat and Binary, the shift for Shifted —
// which is looked up before anything is built; only a miss builds the tree
// and copies it into the plan's storage. TopoShifted's remaining input is a
// 64-bit mix of which many values give one tree (a three-rank tree has two
// shapes), so its key is the built tree itself.
func (b *treeBuilder) intern(scheme Scheme, root int, seed, opKey uint64, topo Topology) *Tree {
	slices.Sort(b.ranks)
	parts := slices.Compact(b.ranks) // a rank owning several blocks participates once
	if _, found := slices.BinarySearch(parts, root); !found {
		panic(fmt.Sprintf("core: root %d not among participants %v", root, parts))
	}
	var built *Tree
	h, x := fnv(uint64(root), parts), uint32(0)
	switch scheme {
	case ShiftedBinaryTree:
		x = uint32(shift(seed, opKey, len(parts)-1))
	case TopoShiftedTree:
		built = b.build(parts, root, scheme, seed, opKey, topo)
		h = fnv(fnv(h, built.up), built.kids)
	}
	h = splitmix64(h ^ uint64(x))
	mask := uint32(len(b.slots) - 1)
	i := uint32(h) & mask
	for ; b.slots[i] != 0; i = (i + 1) & mask {
		if o := b.interned[b.slots[i]-1]; o.h == uint32(h) && o.x == x && o.t.Root == root &&
			slices.Equal(o.t.parts, parts) && (built == nil || o.t.equal(built)) {
			return o.t
		}
	}
	if built == nil {
		built = b.build(parts, root, scheme, seed, opKey, topo)
	}
	n := len(parts)
	ranks, ix, t := b.ints.take(2*n-1), b.ix.take(2*n+1), &b.trees.take(1)[0]
	copy(ranks[copy(ranks, parts):], built.kids)
	copy(ix[copy(ix, built.up):], built.first)
	*t = Tree{Root: root, parts: ranks[:n:n], kids: ranks[n:], up: ix[:n:n], first: ix[n:]}
	b.interned = append(b.interned, internedTree{t, uint32(h), x})
	if b.slots[i] = int32(len(b.interned)); 2*len(b.interned) > len(b.slots) {
		b.grow(2 * len(b.slots))
	}
	return t
}

// grow resizes the intern table to n slots, a power of two.
func (b *treeBuilder) grow(n int) {
	b.slots = make([]int32, n)
	for x, e := range b.interned {
		i := e.h & uint32(n-1)
		for ; b.slots[i] != 0; i = (i + 1) & uint32(n-1) {
		}
		b.slots[i] = int32(x + 1)
	}
}

// fnv mixes s into h, word by word (FNV-1a over words).
func fnv[T int | int32](h uint64, s []T) uint64 {
	for _, v := range s {
		h = (h ^ uint64(v)) * 0x100000001b3
	}
	return h
}

// slab hands out slices carved from shared chunks, each twice the last, up
// to 64K elements: one allocation for many small slices that live as long as
// each other.
type slab[T any] struct {
	free  []T
	chunk int
}

// take returns n elements off the current chunk, first allocating a new one
// when it is short.
func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.chunk = min(max(2*s.chunk, 1), 1<<16)
		s.free = make([]T, max(n, s.chunk))
	}
	t := s.free[:n:n]
	s.free = s.free[n:]
	return t
}

// build builds the tree of scheme over the sorted, deduplicated parts as
// b.tree.
func (b *treeBuilder) build(parts []int, root int, scheme Scheme, seed, opKey uint64, topo Topology) *Tree {
	n := len(parts)
	rootPos, _ := slices.BinarySearch(parts, root)
	t := &b.tree
	kids, ix := slices.Grow(t.kids[:0], n-1)[:n-1], slices.Grow(t.first[:0], 2*n+1)[:2*n+1]
	clear(ix)
	*t = Tree{Root: root, parts: parts, kids: kids, first: ix[:n+1], up: ix[n+1:]}
	t.up[rootPos] = -1
	b.up, b.links, b.rest = t.up, b.links[:0], b.rest[:0]
	for i := range n {
		if i != rootPos {
			b.rest = append(b.rest, int32(i))
		}
	}
	r, rest := int32(rootPos), b.rest
	switch scheme {
	case FlatTree:
		for _, c := range rest {
			b.link(r, c)
		}
	case BinaryTree:
		b.binary(r, rest)
	case ShiftedBinaryTree:
		rotate(rest, shift(seed, opKey, len(rest)))
		b.binary(r, rest)
	case TopoShiftedTree:
		b.topoShifted(parts, r, seed, opKey, topo)
	default:
		panic(fmt.Sprintf("core: unknown scheme %d (valid: %s)",
			int(scheme), strings.Join(SchemeSlugs(), "|")))
	}
	// The children CSR: count the links per parent for the offsets, then
	// place them in link order, first[p] walking from p's start to p+1's.
	for _, c := range b.links {
		t.first[t.up[c]+1]++
	}
	for i := 1; i <= n; i++ {
		t.first[i] += t.first[i-1]
	}
	for _, c := range b.links {
		p := t.up[c]
		t.kids[t.first[p]] = parts[c]
		t.first[p]++
	}
	copy(t.first[1:], t.first[:n])
	t.first[0] = 0
	return t
}

// rotate turns s left by k places in place: s[k:] then s[:k].
func rotate(s []int32, k int) {
	slices.Reverse(s[:k])
	slices.Reverse(s[k:])
	slices.Reverse(s)
}

// topoShifted is the shifted binary tree restructured around the node
// groups of topo. One leader per occupied node joins an inter-node binary
// tree rooted at the broadcast root, in circular node order anchored at the
// root's group (the paper's shift applied at node granularity); the
// remaining members of each group hang off their leader through an
// intra-node shifted binary tree. Leaders and intra-node shifts rotate per
// collective via the (seed, opKey) stream, spreading forwarding load the
// same way ShiftedBinaryTree does — but never at the price of an extra
// cross-node edge.
func (b *treeBuilder) topoShifted(parts []int, root int32, seed, opKey uint64, topo Topology) {
	groups := groupByNode(parts, topo)
	mix := splitmix64(seed ^ splitmix64(opKey))
	rootNode := topo.Node(parts[root])
	leaders := make([]int32, len(groups))
	rootIdx := 0
	for i, g := range groups {
		if g.node == rootNode {
			leaders[i] = root
			rootIdx = i
			continue
		}
		leaders[i] = int32(g.lo) + int32(splitmix64(mix^uint64(g.node))%uint64(g.hi-g.lo))
	}
	others := make([]int32, 0, len(groups)-1)
	for k := 1; k < len(groups); k++ {
		others = append(others, leaders[(rootIdx+k)%len(groups)])
	}
	b.binary(root, others)
	for i, g := range groups {
		rest := b.rest[:0]
		for p := int32(g.lo); p < int32(g.hi); p++ {
			if p != leaders[i] {
				rest = append(rest, p)
			}
		}
		if len(rest) > 1 {
			rotate(rest, int(splitmix64(mix^0x9e3779b9^uint64(g.node))%uint64(len(rest))))
		}
		b.binary(leaders[i], rest)
	}
}

func (b *treeBuilder) link(parent, child int32) {
	b.up[child] = parent
	b.links = append(b.links, child)
}

// binary attaches list as descendants of node by repeatedly splitting the
// ordered list in two halves; the first position of each half becomes an
// internal node forwarding to the remainder of its half (§III).
func (b *treeBuilder) binary(node int32, list []int32) {
	if len(list) == 0 {
		return
	}
	half := (len(list) + 1) / 2
	left, right := list[:half], list[half:]
	b.link(node, left[0])
	b.binary(left[0], left[1:])
	if len(right) > 0 {
		b.link(node, right[0])
		b.binary(right[0], right[1:])
	}
}
