package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
	"pselinv/internal/stats"
)

// TestWidthSweep checks the scheme × balancer sweep on one seed: a cell's
// counts are the plan's vectors for the same config, the topology-aware
// scheme moves strictly fewer collective messages and bytes across nodes
// than Shifted Binary-Tree at P ∈ {48, 96} (24 ranks/node) under every
// balancer, and a second run writes the identical artifact.
func TestWidthSweep(t *testing.T) {
	p := PrepareSymbolic(sparse.Grid2D(40, 40, 1), DefaultRelax, DefaultMaxWidth)
	ps := []int{48, 96}
	measure := func() (*WidthSweep, []byte) {
		sweep := MeasureWidth(p, ps, []uint64{1}, ScaledEdisonParams())
		path := filepath.Join(t.TempDir(), "BENCH_width.json")
		if err := WriteWidth(path, sweep); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return sweep, data
	}
	sweep, first := measure()
	if _, second := measure(); !bytes.Equal(first, second) {
		t.Fatal("two runs of the sweep wrote different artifacts")
	}
	if want := len(ps) * len(core.AllSchemes()) * len(core.AllBalancers()); len(sweep.Cells) != want {
		t.Fatalf("%d cells, want %d", len(sweep.Cells), want)
	}
	cells := map[string]*WidthCell{}
	for _, c := range sweep.Cells {
		cells[fmt.Sprintf("%d/%s/%s", c.P, c.Scheme, c.Balancer)] = c
		if c.Nodes != c.P/24 || c.MakespanMean <= 0 {
			t.Errorf("P=%d %s/%s: %d nodes, makespan %g", c.P, c.Scheme, c.Balancer, c.Nodes, c.MakespanMean)
		}
	}

	plan := core.NewPlanConfig(p.An.BP, procgrid.Squarish(48), core.PlanConfig{
		Scheme: core.ShiftedBinaryTree, Seed: 1, Symmetric: true,
		Topo: core.Topology{CoresPerNode: 24},
	})
	sent := plan.PerRankTotalSent()
	var total int64
	for _, b := range sent {
		total += b
	}
	msgs := 0
	for _, n := range plan.PerRankMsgs() {
		msgs += n
	}
	flopImb, nnzImb := core.LoadImbalance(plan.RankLoads())
	want := WidthCell{P: 48, Scheme: "shifted", Balancer: "cyclic", Nodes: 2,
		TotalMB:        stats.MB(total),
		MaxSentMB:      stats.MB(slices.Max(sent)),
		ColBcastMaxMB:  stats.MB(slices.Max(plan.PerRankSent(core.OpColBcast))),
		RowReduceMaxMB: stats.MB(slices.Max(plan.PerRankRecv(core.OpRowReduce))),
		Msgs:           msgs / 2,
		FlopImbalance:  flopImb,
		NNZImbalance:   nnzImb,
		CrossEdges:     plan.CrossNodeStats().Edges,
		CrossMB:        stats.MB(plan.CrossNodeStats().Bytes),
	}
	got := *cells["48/shifted/cyclic"]
	got.MakespanMean, got.MakespanStd = 0, 0
	if got != want {
		t.Errorf("cell counts are not the plan's:\ngot  %+v\nwant %+v", got, want)
	}

	for _, procs := range ps {
		for _, bal := range core.BalancerSlugs() {
			shifted := cells[fmt.Sprintf("%d/shifted/%s", procs, bal)]
			topo := cells[fmt.Sprintf("%d/toposhifted/%s", procs, bal)]
			if topo.CrossEdges >= shifted.CrossEdges || topo.CrossMB >= shifted.CrossMB {
				t.Errorf("P=%d %s: toposhifted crosses nodes on %d edges / %g MB, not strictly fewer than shifted's %d / %g",
					procs, bal, topo.CrossEdges, topo.CrossMB, shifted.CrossEdges, shifted.CrossMB)
			}
		}
	}
}
