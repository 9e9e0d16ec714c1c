package core

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

// defaultTopology is the Edison-style packing used when a caller does not
// specify placement: 24 ranks per node, the same constant as
// netsim.DefaultParams().CoresPerNode and the paper's platform.
func defaultTopology() Topology { return Topology{CoresPerNode: 24} }

// Node returns the node housing rank.
func (t Topology) Node(rank int) int {
	if t.CoresPerNode <= 0 {
		return 0
	}
	return rank / t.CoresPerNode
}

// nodeGroup is one node's run of a sorted participant list: the
// participants at positions [lo, hi) live on node.
type nodeGroup struct{ node, lo, hi int }

// groupByNode partitions a sorted participant list into per-node groups,
// ordered by node id. Sorted rank order implies sorted node order, so a
// single pass suffices.
func groupByNode(parts []int, topo Topology) []nodeGroup {
	var groups []nodeGroup
	for i, r := range parts {
		if n := topo.Node(r); len(groups) == 0 || groups[len(groups)-1].node != n {
			groups = append(groups, nodeGroup{node: n, lo: i})
		}
		groups[len(groups)-1].hi = i + 1
	}
	return groups
}

// CrossNodeEdges counts the tree edges whose endpoints live on different
// nodes — the messages that must traverse the inter-node network. Any
// spanning tree over participants occupying g nodes needs at least g-1
// such edges; TopoShiftedTree meets that bound exactly.
func (t *Tree) CrossNodeEdges(topo Topology) int {
	edges := 0
	for i, up := range t.up {
		if up >= 0 && topo.Node(t.parts[i]) != topo.Node(t.parts[up]) {
			edges++
		}
	}
	return edges
}
