package pselinv

import (
	"fmt"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

// TestAnalyticPerRankVolumesMatchEngine validates the analytic volume
// model rank-by-rank against the executed engine in every mode — the
// symmetric and general paths, real and complex elements, sequential and
// DAG execution: the plan IS the traffic.
func TestAnalyticPerRankVolumesMatchEngine(t *testing.T) {
	withPoolWorkers(t, 4)
	g := sparse.Grid2D(8, 8, 4)
	an, lu, _ := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	grid := procgrid.New(4, 4)
	for _, mode := range volumeModes(t, an, lu) {
		for _, dag := range []bool{false, true} {
			label := fmt.Sprintf("%s dag=%v", mode.name, dag)
			plan := core.NewPlanConfig(an.BP, grid, core.PlanConfig{Scheme: core.ShiftedBinaryTree, Seed: 13, Symmetric: mode.symmetric})
			eng := NewEngine(plan, mode.lu)
			eng.DAG = dag
			res, err := eng.Run(testTimeout)
			if err != nil {
				t.Fatal(err)
			}
			requireVolumesMatchPlan(t, label, plan, res.World, mode.lu.Elem.Width())
			res.Release()
		}
	}
}

func TestAnalyticVolumesLargeGridRuns(t *testing.T) {
	// The analytic model must handle the paper's literal 46×46 grid
	// cheaply (no engine, no numerics).
	g := sparse.Grid2D(12, 12, 1)
	perm := orderingIdentity(g.A.N)
	an := etree.Analyze(g.A, perm, etree.Options{Relax: 2, MaxWidth: 8})
	plan := core.NewPlan(an.BP, procgrid.New(46, 46), core.ShiftedBinaryTree, 1)
	sent := plan.PerRankSent(core.OpColBcast)
	if len(sent) != 46*46 {
		t.Fatalf("vector length %d", len(sent))
	}
	var total int64
	for _, v := range sent {
		total += v
	}
	if total != expectedBytes(plan, core.OpColBcast) {
		t.Fatalf("per-rank sum %d != expected total %d", total, expectedBytes(plan, core.OpColBcast))
	}
}

func orderingIdentity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
