package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

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

// TestObsCrossNodeColumns checks the chain-table side of the criterion: a
// topology-annotated obs run reports cross-node hops per class, and the
// topology-aware scheme meets the nodes-1 spanning-tree reference on the
// broadcast classes while the blind scheme exceeds it somewhere.
func TestObsCrossNodeColumns(t *testing.T) {
	p, grid, err := ObsProblem()
	if err != nil {
		t.Fatal(err)
	}
	// 16 ranks at 8 per node: a 2-node hierarchy whose boundary the 4×4
	// grid's column groups straddle (two members per node), so a blind
	// scheme can waste cross-node hops that the aware one avoids. (At 4
	// per node every column-group member sits on its own node and all
	// schemes tie at the spanning-tree floor.)
	opts := RunOpts{CoresPerNode: 8}
	schemes := []core.Scheme{core.ShiftedBinaryTree, core.TopoShiftedTree}
	ms, err := MeasureObs(p, grid, schemes, 1, 30*time.Second, opts)
	if err != nil {
		t.Fatal(err)
	}
	crossSum := map[core.Scheme]int{}
	for _, m := range ms {
		if m.Report.CoresPerNode != opts.CoresPerNode {
			t.Fatalf("%v: report cores_per_node = %d, want %d",
				m.Scheme, m.Report.CoresPerNode, opts.CoresPerNode)
		}
		for _, cs := range m.Report.Collectives {
			if cs.Kind != "bcast" {
				continue
			}
			crossSum[m.Scheme] += cs.CrossSum
			if cs.NodesMax == 0 {
				t.Errorf("%v %s: chain summary missing node annotations", m.Scheme, cs.Class)
			}
			if cs.CrossRef != cs.NodesMax-1 {
				t.Errorf("%v %s: crossRef %d, want nodesMax-1 = %d",
					m.Scheme, cs.Class, cs.CrossRef, cs.NodesMax-1)
			}
			// Every single topology-aware collective hits the spanning-tree
			// minimum, so the worst one equals the reference.
			if m.Scheme == core.TopoShiftedTree && cs.CrossMax > cs.CrossRef {
				t.Errorf("%v %s: crossMax %d exceeds the nodes-1 reference %d",
					m.Scheme, cs.Class, cs.CrossMax, cs.CrossRef)
			}
		}
	}
	if topo, blind := crossSum[core.TopoShiftedTree], crossSum[core.ShiftedBinaryTree]; topo >= blind {
		t.Errorf("toposhifted measured %d cross-node bcast hops, not fewer than shifted's %d", topo, blind)
	}
}
