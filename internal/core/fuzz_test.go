package core

import (
	"math"
	"testing"
)

// fuzzRanks decodes a byte string into a participant set: each byte is a
// (possibly zero) increment over the previous rank, so the input space
// covers duplicates, dense runs and sparse spreads. The set is capped to
// keep individual fuzz executions fast.
func fuzzRanks(data []byte) []int {
	const maxParts = 300
	if len(data) > maxParts {
		data = data[:maxParts]
	}
	ranks := make([]int, 0, len(data)+1)
	rank := 0
	ranks = append(ranks, rank)
	for _, b := range data {
		rank += int(b % 7) // 0 increment keeps duplicates in the corpus
		ranks = append(ranks, rank)
	}
	return ranks
}

// uniqueCount returns the number of distinct ranks (participants after
// NewTree's dedup step).
func uniqueCount(ranks []int) int {
	seen := map[int]bool{}
	for _, r := range ranks {
		seen[r] = true
	}
	return len(seen)
}

// depthBound is the paper's O(log p) critical-path guarantee: the binary
// construction over p participants may not exceed ⌈log₂ p⌉+1 edges.
func depthBound(p int) int {
	if p <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(p)))) + 1
}

// checkTreeInvariants asserts the structural properties every binary-family
// tree must satisfy regardless of shift: connectivity with each participant
// reached exactly once, out-degree at most 2 everywhere (including the
// root), and logarithmic depth.
func checkTreeInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	if err := validateTree(tr); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	for _, r := range tr.Participants() {
		if d := len(tr.Children(r)); d > 2 {
			t.Fatalf("rank %d has out-degree %d (> 2); root=%d parts=%v",
				r, d, tr.Root, tr.Participants())
		}
	}
	if d, bound := tr.Depth(), depthBound(tr.Size()); d > bound {
		t.Fatalf("depth %d exceeds ⌈log₂ %d⌉+1 = %d", d, tr.Size(), bound)
	}
}

func FuzzBinaryTree(f *testing.F) {
	f.Add(uint64(1), uint64(1), byte(0), []byte{1, 2, 3})
	f.Add(uint64(7), uint64(99), byte(3), []byte{0, 0, 0, 0, 5})
	f.Add(uint64(0), uint64(0), byte(255), make([]byte, 200))
	f.Fuzz(func(t *testing.T, seed, opKey uint64, rootSel byte, data []byte) {
		ranks := fuzzRanks(data)
		root := ranks[int(rootSel)%len(ranks)]
		tr := NewTree(BinaryTree, root, ranks, seed, opKey)
		if tr.Size() != uniqueCount(ranks) {
			t.Fatalf("size %d, want %d distinct participants", tr.Size(), uniqueCount(ranks))
		}
		checkTreeInvariants(t, tr)
	})
}

// topoDepthBound is the hierarchical analogue of depthBound: inter-node
// binary tree over the occupied node groups plus intra-node binary tree
// within the largest group, with two joining edges. Duplicate ranks only
// inflate the bound, which is safe.
func topoDepthBound(ranks []int, topo Topology) int {
	groups := map[int]int{}
	maxGroup := 0
	for _, r := range ranks {
		n := topo.Node(r)
		groups[n]++
		if groups[n] > maxGroup {
			maxGroup = groups[n]
		}
	}
	return depthBound(len(groups)) + depthBound(maxGroup) + 2
}

// checkTopoTreeInvariants asserts the properties of the topology-aware
// constructions: validateTree plus the locality invariant (no tree edge
// crosses nodes unless its child endpoint is that node's single group
// leader), out-degree at most 4 (two inter-node plus two intra-node
// children), and hierarchical-logarithmic depth.
func checkTopoTreeInvariants(t *testing.T, tr *Tree, topo Topology, ranks []int) {
	t.Helper()
	if err := validateTree(tr); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	if err := tr.ValidateTopology(topo); err != nil {
		t.Fatalf("topology invariant violated (cpn=%d): %v", topo.CoresPerNode, err)
	}
	for _, r := range tr.Participants() {
		if d := len(tr.Children(r)); d > 4 {
			t.Fatalf("rank %d has out-degree %d (> 4); root=%d parts=%v",
				r, d, tr.Root, tr.Participants())
		}
	}
	if d, bound := tr.Depth(), topoDepthBound(ranks, topo); d > bound {
		t.Fatalf("depth %d exceeds hierarchical bound %d (cpn=%d, p=%d)",
			d, bound, topo.CoresPerNode, tr.Size())
	}
}

func FuzzTopoShiftedTree(f *testing.F) {
	f.Add(uint64(1), uint64(1), byte(0), byte(3), []byte{1, 2, 3})
	f.Add(uint64(42), uint64(7), byte(9), byte(0), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(uint64(0), uint64(0), byte(128), byte(23), make([]byte, 150))
	f.Fuzz(func(t *testing.T, seed, opKey uint64, rootSel, cpn byte, data []byte) {
		ranks := fuzzRanks(data)
		root := ranks[int(rootSel)%len(ranks)]
		topo := Topology{CoresPerNode: 1 + int(cpn%24)}
		tr := NewTreeTopo(TopoShiftedTree, root, ranks, seed, opKey, topo)
		if tr.Size() != uniqueCount(ranks) {
			t.Fatalf("size %d, want %d distinct participants", tr.Size(), uniqueCount(ranks))
		}
		checkTopoTreeInvariants(t, tr, topo, ranks)
		// Every rank derives the tree independently from (seed, opKey): a
		// reconstruction must match edge for edge.
		indep := NewTreeTopo(TopoShiftedTree, root, ranks, seed, opKey, topo)
		for _, r := range tr.Participants() {
			if indep.Parent(r) != tr.Parent(r) {
				t.Fatalf("rank %d: parent %d vs %d across reconstructions",
					r, indep.Parent(r), tr.Parent(r))
			}
		}
	})
}

func FuzzShiftedTree(f *testing.F) {
	f.Add(uint64(1), uint64(1), byte(0), []byte{1, 2, 3})
	f.Add(uint64(42), uint64(7), byte(9), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(uint64(0), uint64(0), byte(128), make([]byte, 150))
	f.Fuzz(func(t *testing.T, seed, opKey uint64, rootSel byte, data []byte) {
		ranks := fuzzRanks(data)
		root := ranks[int(rootSel)%len(ranks)]
		tr := NewTree(ShiftedBinaryTree, root, ranks, seed, opKey)
		checkTreeInvariants(t, tr)
		// Shift agreement: in the engine every rank derives the tree
		// independently from (seed, opKey) with zero communication, so a
		// reconstruction "at" each participant must produce the identical
		// topology — same parent and same ordered child list everywhere.
		for range tr.Participants() {
			indep := NewTree(ShiftedBinaryTree, root, ranks, seed, opKey)
			if indep.Root != tr.Root {
				t.Fatalf("independent reconstruction changed the root: %d vs %d", indep.Root, tr.Root)
			}
			for _, r := range tr.Participants() {
				if indep.Parent(r) != tr.Parent(r) {
					t.Fatalf("rank %d: parent %d vs %d across reconstructions",
						r, indep.Parent(r), tr.Parent(r))
				}
				a, b := tr.Children(r), indep.Children(r)
				if len(a) != len(b) {
					t.Fatalf("rank %d: child count %d vs %d", r, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("rank %d: child %d is %d vs %d", r, i, a[i], b[i])
					}
				}
			}
		}
	})
}
