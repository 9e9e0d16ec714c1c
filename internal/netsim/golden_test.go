package netsim

import (
	"math"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

// TestBuildDAGGolden pins the task graph and the simulated makespan, bit for
// bit, on a symmetric and a general plan of two problems. Node creation and
// edge order feed the event heap's tie-break, so a restructuring of buildDAG
// that reorders either moves these numbers; they were recorded at f61b837,
// before buildDAG's per-side rewrite. The symmetric rows' makespans were
// re-recorded once, when symmetric plans began to ship packed diagonal
// triangles and charge 2w³/3 per diagonal inverse; the general rows did not
// move.
func TestBuildDAGGolden(t *testing.T) {
	pattern := func(g *sparse.Generated, relax, maxWidth int) *etree.BlockPattern {
		perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
		return etree.Analyze(g.A.Permute(perm), perm, etree.Options{Relax: relax, MaxWidth: maxWidth}).BP
	}
	obs := pattern(sparse.Grid2D(16, 16, 1), 2, 8) // the observability tests' matrix
	dg := pattern(sparse.DG2D(16, 16, 4, 1), 4, 48)
	for _, c := range []struct {
		name         string
		bp           *etree.BlockPattern
		symmetric    bool
		nodes, edges int
		makespanBits uint64
	}{
		{"grid2d16/symmetric", obs, true, 7005, 9681, 0x3f2a9080ea6bdc1a},
		{"grid2d16/general", obs, false, 11626, 17082, 0x3f35ab6213d26210},
		{"dg2d16b4/symmetric", dg, true, 8132, 11271, 0x3f52545c5ee1c8f7},
		{"dg2d16b4/general", dg, false, 13438, 19842, 0x3f6007c2be975a0d},
	} {
		plan := core.NewPlanConfig(c.bp, procgrid.New(4, 4),
			core.PlanConfig{Scheme: core.ShiftedBinaryTree, Seed: 1, Symmetric: c.symmetric})
		dag := BuildDAG(plan)
		edges := 0
		for i := range dag.nodes {
			edges += len(dag.nodes[i].outs)
		}
		bits := math.Float64bits(SimulateDAG(dag, DefaultParams()).Makespan)
		if len(dag.nodes) != c.nodes || edges != c.edges || bits != c.makespanBits {
			t.Errorf("%s: nodes %d edges %d makespan bits %#x, want %d %d %#x",
				c.name, len(dag.nodes), edges, bits, c.nodes, c.edges, c.makespanBits)
		}
	}
}
