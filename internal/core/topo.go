package core

import (
	"fmt"
	"sort"
)

// Topology describes how ranks are packed onto physical nodes: the
// hierarchical-cluster fact the paper's three schemes ignore. Ranks are
// laid out CoresPerNode-at-a-time (rank r lives on node r/CoresPerNode),
// matching internal/netsim's cost model and the 24-cores-per-node Edison
// placement of the paper's platform. TopoShiftedTree consumes it to keep
// tree edges inside nodes.
//
// The zero value (CoresPerNode == 0) collapses everything onto a single
// node, under which TopoShiftedTree degrades gracefully to its intra-node
// shape.
type Topology struct {
	// CoresPerNode is the number of consecutive ranks per physical node;
	// non-positive means one giant node.
	CoresPerNode int
}

// DefaultTopology is the Edison-style packing used when a caller does not
// specify placement: 24 ranks per node, the same constant as
// netsim.DefaultParams().CoresPerNode and the paper's platform.
func DefaultTopology() Topology { return Topology{CoresPerNode: 24} }

// Node returns the node housing rank.
func (t Topology) Node(rank int) int {
	if t.CoresPerNode <= 0 {
		return 0
	}
	return rank / t.CoresPerNode
}

// nodeGroup is one node's slice of a participant set.
type nodeGroup struct {
	node    int
	members []int // ascending rank order
}

// groupByNode partitions a sorted participant list into per-node groups,
// ordered by node id. Sorted rank order implies sorted node order, so a
// single pass suffices.
func groupByNode(parts []int, topo Topology) []nodeGroup {
	var groups []nodeGroup
	for _, r := range parts {
		n := topo.Node(r)
		if len(groups) == 0 || groups[len(groups)-1].node != n {
			groups = append(groups, nodeGroup{node: n})
		}
		g := &groups[len(groups)-1]
		g.members = append(g.members, r)
	}
	return groups
}

// CrossNodeEdges counts the tree edges whose endpoints live on different
// nodes — the messages that must traverse the inter-node network. Any
// spanning tree over participants occupying g nodes needs at least g-1
// such edges; TopoShiftedTree meets that bound exactly.
func (t *Tree) CrossNodeEdges(topo Topology) int {
	edges := 0
	for child, parent := range t.parent {
		if topo.Node(child) != topo.Node(parent) {
			edges++
		}
	}
	return edges
}

// ValidateTopology checks the locality invariant of the topology-aware
// constructions: each occupied node has exactly one entry point — a single
// rank (its node-group leader) whose parent lives off-node, or the root —
// so no tree edge crosses nodes unless its child endpoint is that group's
// leader. This pins the cross-node edge count at its g-1 minimum.
func (t *Tree) ValidateTopology(topo Topology) error {
	entries := map[int][]int{} // node -> entry ranks
	for _, r := range t.parts {
		n := topo.Node(r)
		if r == t.Root || topo.Node(t.Parent(r)) != n {
			entries[n] = append(entries[n], r)
		}
	}
	for _, g := range groupByNode(t.parts, topo) {
		es := entries[g.node]
		if len(es) != 1 {
			sort.Ints(es)
			return fmt.Errorf("core: node %d has %d entry points %v (want exactly one group leader)",
				g.node, len(es), es)
		}
	}
	if got, want := t.CrossNodeEdges(topo), len(entries)-1; got != want {
		return fmt.Errorf("core: %d cross-node edges over %d occupied nodes (want the minimum %d)",
			got, len(entries), want)
	}
	return nil
}
