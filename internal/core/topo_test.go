package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// numNodes counts the distinct nodes occupied by ranks.
func numNodes(topo Topology, ranks []int) int {
	seen := map[int]bool{}
	for _, r := range ranks {
		seen[topo.Node(r)] = true
	}
	return len(seen)
}

func TestTopologyNode(t *testing.T) {
	topo := Topology{CoresPerNode: 4}
	for rank, want := range map[int]int{0: 0, 3: 0, 4: 1, 7: 1, 23: 5} {
		if got := topo.Node(rank); got != want {
			t.Errorf("Node(%d) = %d, want %d", rank, got, want)
		}
	}
	flat := Topology{} // zero value: one giant node
	if flat.Node(999) != 0 {
		t.Fatal("zero-value topology must map every rank to node 0")
	}
	if n := numNodes(topo, []int{0, 1, 4, 5, 23}); n != 3 {
		t.Fatalf("numNodes = %d, want 3", n)
	}
}

// TestSchemeTable covers every scheme constant: String/Slug round-trips
// through ParseScheme, and NewTreeTopo has a switch arm building a valid
// tree. A new enum value that misses any of these fails here.
func TestSchemeTable(t *testing.T) {
	want := map[Scheme]struct{ name, slug string }{
		FlatTree:          {"Flat-Tree", "flat"},
		BinaryTree:        {"Binary-Tree", "binary"},
		ShiftedBinaryTree: {"Shifted Binary-Tree", "shifted"},
		TopoShiftedTree:   {"Topo-Shifted-Tree", "toposhifted"},
	}
	all := AllSchemes()
	if len(all) != len(want) {
		t.Fatalf("AllSchemes lists %d schemes, table has %d — extend both together", len(all), len(want))
	}
	topo := Topology{CoresPerNode: 4}
	for _, s := range all {
		w, ok := want[s]
		if !ok {
			t.Fatalf("scheme %d missing from the table", int(s))
		}
		if s.String() != w.name {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w.name)
		}
		if s.Slug() != w.slug {
			t.Errorf("%d.Slug() = %q, want %q", int(s), s.Slug(), w.slug)
		}
		got, err := ParseScheme(w.slug)
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", w.slug, got, err, s)
		}
		if got, err := ParseScheme(strings.ToUpper(" " + w.slug + " ")); err != nil || got != s {
			t.Errorf("ParseScheme is not case/space insensitive for %q", w.slug)
		}
		tr := NewTreeTopo(s, 0, ranksUpTo(20), 1, 2, topo)
		if err := validateTree(tr); err != nil {
			t.Errorf("%v: NewTreeTopo built an invalid tree: %v", s, err)
		}
	}
	// "bine" names the Bine-style tree that was removed after the scheme ×
	// balancer sweep showed it dominated by toposhifted; "randperm" and
	// "hybrid" name the ablations removed after the same sweep showed them
	// no better than shifted and flat.
	for _, name := range []string{"bogus", "bine", "randperm", "hybrid"} {
		_, err := ParseScheme(name)
		if err == nil {
			t.Fatalf("ParseScheme(%q) must fail", name)
		}
		if !strings.Contains(err.Error(), "(valid: flat|binary|shifted|toposhifted)") {
			t.Errorf("ParseScheme(%q) error %q does not list the four valid slugs", name, err)
		}
	}
}

func TestTopoShiftedTreeLocality(t *testing.T) {
	topo := Topology{CoresPerNode: 24}
	ranks := ranksUpTo(48)
	for op := uint64(0); op < 20; op++ {
		tr := NewTreeTopo(TopoShiftedTree, 30, ranks, 7, op, topo)
		if err := validateTree(tr); err != nil {
			t.Fatal(err)
		}
		if err := tr.ValidateTopology(topo); err != nil {
			t.Fatal(err)
		}
		if e := tr.CrossNodeEdges(topo); e != 1 {
			t.Fatalf("op %d: %d cross-node edges over 2 nodes, want 1", op, e)
		}
	}
}

func TestTopoShiftedRotatesLeaders(t *testing.T) {
	topo := Topology{CoresPerNode: 24}
	ranks := ranksUpTo(48)
	leaders := map[int]bool{}
	for op := uint64(0); op < 50; op++ {
		tr := NewTreeTopo(TopoShiftedTree, 0, ranks, 7, op, topo)
		for _, r := range ranks[24:] { // node 1's members
			if topo.Node(tr.Parent(r)) == 0 {
				leaders[r] = true
			}
		}
	}
	if len(leaders) < 10 {
		t.Fatalf("only %d distinct node-1 leaders across 50 collectives; rotation not effective", len(leaders))
	}
}

// Property: on the same (ranks, root, seed, opKey, topology) inputs the
// topology-aware scheme never uses more cross-node edges than the
// topology-blind binary constructions — in fact it pins the count at its
// g-1 spanning-tree minimum for g occupied nodes.
func TestTopoSchemesMinimizeCrossNodeEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(80)
		ranks := rng.Perm(400)[:n]
		root := ranks[rng.Intn(n)]
		topo := Topology{CoresPerNode: 1 + rng.Intn(32)}
		seed, op := rng.Uint64(), rng.Uint64()
		build := func(s Scheme) *Tree {
			return NewTreeTopo(s, root, ranks, seed, op, topo)
		}
		floor := numNodes(topo, ranks) - 1
		tr := build(TopoShiftedTree)
		if err := tr.ValidateTopology(topo); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		aware := tr.CrossNodeEdges(topo)
		if aware != floor {
			t.Fatalf("trial %d: %d cross-node edges, want the minimum %d", trial, aware, floor)
		}
		for _, base := range []Scheme{BinaryTree, ShiftedBinaryTree} {
			if blind := build(base).CrossNodeEdges(topo); aware > blind {
				t.Fatalf("trial %d: toposhifted uses %d cross-node edges, %v only %d (cpn=%d n=%d)",
					trial, aware, base, blind, topo.CoresPerNode, n)
			}
		}
	}
}

// ValidateTopology checks the locality invariant of the topology-aware
// constructions: each occupied node has exactly one entry point — a single
// rank (its node-group leader) whose parent lives off-node, or the root —
// so no tree edge crosses nodes unless its child endpoint is that group's
// leader. This pins the cross-node edge count at its g-1 minimum.
func (t *Tree) ValidateTopology(topo Topology) error {
	groups := groupByNode(t.parts, topo)
	for _, g := range groups {
		var entries []int
		for i := g.lo; i < g.hi; i++ {
			if up := t.up[i]; up < 0 || topo.Node(t.parts[up]) != g.node {
				entries = append(entries, t.parts[i])
			}
		}
		if len(entries) != 1 {
			return fmt.Errorf("core: node %d has %d entry points %v (want exactly one group leader)",
				g.node, len(entries), entries)
		}
	}
	if got, want := t.CrossNodeEdges(topo), len(groups)-1; got != want {
		return fmt.Errorf("core: %d cross-node edges over %d occupied nodes (want the minimum %d)",
			got, len(groups), want)
	}
	return nil
}
