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
// (internal/netsim).
package core

import (
	"fmt"
	"sort"
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
	// RandomPermTree applies a full random permutation before the binary
	// construction — the alternative the paper rejects for destroying rank
	// locality; kept for the ablation study.
	RandomPermTree
	// Hybrid uses FlatTree for small participant sets and
	// ShiftedBinaryTree for large ones (§IV-B, final remark).
	Hybrid
	// TopoShiftedTree is the shifted binary tree made topology-aware: the
	// root-dependent shift is applied within node groups, one leader per
	// occupied node forwards across the inter-node network, and everything
	// else stays on-node. Cross-node edges hit the g-1 minimum for g
	// occupied nodes.
	TopoShiftedTree
)

// String names the scheme as in the paper.
func (s Scheme) String() string {
	switch s {
	case FlatTree:
		return "Flat-Tree"
	case BinaryTree:
		return "Binary-Tree"
	case ShiftedBinaryTree:
		return "Shifted Binary-Tree"
	case RandomPermTree:
		return "Random-Perm-Tree"
	case Hybrid:
		return "Hybrid"
	case TopoShiftedTree:
		return "Topo-Shifted-Tree"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Slug returns the short lower-case name used on command-line flags and in
// service requests.
func (s Scheme) Slug() string {
	switch s {
	case FlatTree:
		return "flat"
	case BinaryTree:
		return "binary"
	case ShiftedBinaryTree:
		return "shifted"
	case RandomPermTree:
		return "randperm"
	case Hybrid:
		return "hybrid"
	case TopoShiftedTree:
		return "toposhifted"
	}
	return fmt.Sprintf("scheme%d", int(s))
}

// Schemes lists the three schemes evaluated in the paper's figures.
func Schemes() []Scheme { return []Scheme{FlatTree, BinaryTree, ShiftedBinaryTree} }

// AllSchemes lists every scheme constant, in declaration order. Table
// tests range over it so a new enum value cannot silently miss a switch
// arm.
func AllSchemes() []Scheme {
	return []Scheme{FlatTree, BinaryTree, ShiftedBinaryTree, RandomPermTree,
		Hybrid, TopoShiftedTree}
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

// DefaultHybridThreshold is the participant count at or below which Hybrid
// uses a flat tree. On the paper's platform a node has 24 cores and
// flat trees win within a node; the same reasoning applies here.
const DefaultHybridThreshold = 24

// Tree is a rooted communication tree over a set of participant ranks.
// Broadcast flows root→leaves along the edges; reduction flows
// leaves→root along the same edges.
type Tree struct {
	Root     int
	parts    []int // all participants, sorted ascending
	parent   map[int]int
	children map[int][]int
}

// Participants returns the sorted participant ranks (including the root).
func (t *Tree) Participants() []int { return t.parts }

// Size returns the number of participants.
func (t *Tree) Size() int { return len(t.parts) }

// Has reports whether rank participates in the tree.
func (t *Tree) Has(rank int) bool {
	if rank == t.Root {
		return true
	}
	_, in := t.parent[rank]
	return in
}

// Parent returns the parent of rank (-1 for the root). Panics for
// non-participants: asking for the parent of an outsider is a plan bug.
func (t *Tree) Parent(rank int) int {
	if rank == t.Root {
		return -1
	}
	p, ok := t.parent[rank]
	if !ok {
		panic(fmt.Sprintf("core: rank %d not in tree rooted at %d", rank, t.Root))
	}
	return p
}

// Children returns the child ranks of rank (nil for leaves and
// non-participants).
func (t *Tree) Children(rank int) []int { return t.children[rank] }

// Depth returns the number of edges on the longest root-to-leaf path.
func (t *Tree) Depth() int {
	var depth func(rank int) int
	depth = func(rank int) int {
		d := 0
		for _, c := range t.children[rank] {
			if cd := depth(c) + 1; cd > d {
				d = cd
			}
		}
		return d
	}
	return depth(t.Root)
}

// Validate checks the tree invariants: every participant is reachable from
// the root exactly once and parent/children are mutually consistent.
func (t *Tree) Validate() error {
	seen := map[int]bool{}
	stack := []int{t.Root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			return fmt.Errorf("core: rank %d reached twice", v)
		}
		seen[v] = true
		for _, c := range t.children[v] {
			if t.Parent(c) != v {
				return fmt.Errorf("core: parent/children inconsistent at %d -> %d", v, c)
			}
			stack = append(stack, c)
		}
	}
	if len(seen) != len(t.parts) {
		return fmt.Errorf("core: reached %d ranks, want %d", len(seen), len(t.parts))
	}
	for _, p := range t.parts {
		if !seen[p] {
			return fmt.Errorf("core: participant %d unreachable", p)
		}
	}
	return nil
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
	return NewTreeTopo(scheme, root, ranks, seed, opKey, DefaultHybridThreshold, DefaultTopology())
}

// NewTreeTopo is the full constructor: NewTree plus an explicit Hybrid
// flat/shifted threshold and the rank→node Topology consumed by
// TopoShiftedTree (the other schemes ignore it).
func NewTreeTopo(scheme Scheme, root int, ranks []int, seed uint64, opKey uint64, hybridThreshold int, topo Topology) *Tree {
	sorted := append([]int(nil), ranks...)
	sort.Ints(sorted)
	// Deduplicate (a rank owning several blocks participates once).
	uniq := sorted[:0]
	for i, r := range sorted {
		if i == 0 || r != sorted[i-1] {
			uniq = append(uniq, r)
		}
	}
	sorted = uniq
	found := false
	for _, r := range sorted {
		if r == root {
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("core: root %d not among participants %v", root, sorted))
	}
	t := &Tree{
		Root:     root,
		parts:    append([]int(nil), sorted...),
		parent:   make(map[int]int, len(sorted)),
		children: make(map[int][]int, len(sorted)),
	}
	// rest = participants minus root, in ascending rank order.
	rest := make([]int, 0, len(sorted)-1)
	for _, r := range sorted {
		if r != root {
			rest = append(rest, r)
		}
	}
	switch scheme {
	case FlatTree:
		for _, r := range rest {
			t.link(root, r)
		}
	case BinaryTree:
		t.buildBinary(root, rest)
	case ShiftedBinaryTree:
		if len(rest) > 1 {
			shift := int(splitmix64(seed^splitmix64(opKey)) % uint64(len(rest)))
			rest = append(rest[shift:], rest[:shift]...)
		}
		t.buildBinary(root, rest)
	case RandomPermTree:
		// Fisher–Yates driven by the same deterministic stream.
		state := seed ^ splitmix64(opKey) ^ 0xabcdef
		for i := len(rest) - 1; i > 0; i-- {
			state = splitmix64(state)
			j := int(state % uint64(i+1))
			rest[i], rest[j] = rest[j], rest[i]
		}
		t.buildBinary(root, rest)
	case Hybrid:
		if len(sorted) <= hybridThreshold {
			for _, r := range rest {
				t.link(root, r)
			}
		} else {
			if len(rest) > 1 {
				shift := int(splitmix64(seed^splitmix64(opKey)) % uint64(len(rest)))
				rest = append(rest[shift:], rest[:shift]...)
			}
			t.buildBinary(root, rest)
		}
	case TopoShiftedTree:
		t.buildTopoShifted(root, seed, opKey, topo)
	default:
		panic(fmt.Sprintf("core: unknown scheme %d (valid: %s)",
			int(scheme), strings.Join(SchemeSlugs(), "|")))
	}
	return t
}

// buildTopoShifted is the shifted binary tree restructured around the node
// groups of topo. One leader per occupied node joins an inter-node binary
// tree rooted at the broadcast root, in circular node order anchored at the
// root's group (the paper's shift applied at node granularity); the
// remaining members of each group hang off their leader through an
// intra-node shifted binary tree. Leaders and intra-node shifts rotate per
// collective via the (seed, opKey) stream, spreading forwarding load the
// same way ShiftedBinaryTree does — but never at the price of an extra
// cross-node edge.
func (t *Tree) buildTopoShifted(root int, seed, opKey uint64, topo Topology) {
	groups := groupByNode(t.parts, topo)
	mix := splitmix64(seed ^ splitmix64(opKey))
	rootNode := topo.Node(root)
	leaders := make([]int, len(groups))
	rootIdx := 0
	for i, g := range groups {
		if g.node == rootNode {
			leaders[i] = root
			rootIdx = i
			continue
		}
		shift := int(splitmix64(mix^uint64(g.node)) % uint64(len(g.members)))
		leaders[i] = g.members[shift]
	}
	others := make([]int, 0, len(groups)-1)
	for k := 1; k < len(groups); k++ {
		others = append(others, leaders[(rootIdx+k)%len(groups)])
	}
	t.buildBinary(root, others)
	for i, g := range groups {
		rest := make([]int, 0, len(g.members)-1)
		for _, r := range g.members {
			if r != leaders[i] {
				rest = append(rest, r)
			}
		}
		if len(rest) > 1 {
			shift := int(splitmix64(mix^0x9e3779b9^uint64(g.node)) % uint64(len(rest)))
			rest = append(rest[shift:], rest[:shift]...)
		}
		t.buildBinary(leaders[i], rest)
	}
}

func (t *Tree) link(parent, child int) {
	t.parent[child] = parent
	t.children[parent] = append(t.children[parent], child)
}

// buildBinary attaches list as descendants of node by repeatedly splitting
// the ordered list in two halves; the first rank of each half becomes an
// internal node forwarding to the remainder of its half (§III).
func (t *Tree) buildBinary(node int, list []int) {
	if len(list) == 0 {
		return
	}
	half := (len(list) + 1) / 2
	left, right := list[:half], list[half:]
	if len(left) > 0 {
		c := left[0]
		t.link(node, c)
		t.buildBinary(c, left[1:])
	}
	if len(right) > 0 {
		c := right[0]
		t.link(node, c)
		t.buildBinary(c, right[1:])
	}
}
