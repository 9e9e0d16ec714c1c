package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/sparse"
)

// TestTreeSweepTopoSchemesWinCrossNode pins the PR's acceptance criterion:
// on the hierarchical topology (24 ranks/node) at P ∈ {48, 96}, the
// topology-aware schemes move strictly fewer collective messages across
// nodes than Shifted Binary-Tree, and the artifact records a measured
// critical path per scheme.
func TestTreeSweepTopoSchemesWinCrossNode(t *testing.T) {
	p := PrepareSymbolic(sparse.Grid2D(40, 40, 1), DefaultRelax, DefaultMaxWidth)
	schemes := []core.Scheme{core.ShiftedBinaryTree, core.TopoShiftedTree, core.BineTree}
	sweep := MeasureTreeSweep(p, []int{48, 96}, schemes, []uint64{1, 2}, ScaledEdisonParams())

	byKey := map[string]*TreeSweepPoint{}
	for _, pt := range sweep.Points {
		byKey[fmt.Sprintf("%d/%s", pt.P, pt.Slug)] = pt
	}
	for _, procs := range []int{48, 96} {
		shifted := byKey[fmt.Sprintf("%d/shifted", procs)]
		if shifted == nil {
			t.Fatalf("P=%d: no shifted point in sweep", procs)
		}
		wantNodes := procs / 24
		for _, slug := range []string{"toposhifted", "bine"} {
			pt := byKey[fmt.Sprintf("%d/%s", procs, slug)]
			if pt == nil {
				t.Fatalf("P=%d: no %s point in sweep", procs, slug)
			}
			if pt.Nodes != wantNodes {
				t.Errorf("P=%d %s: %d nodes, want %d", procs, slug, pt.Nodes, wantNodes)
			}
			if pt.CrossEdges >= shifted.CrossEdges {
				t.Errorf("P=%d: %s has %d cross-node edges, not strictly fewer than shifted's %d",
					procs, slug, pt.CrossEdges, shifted.CrossEdges)
			}
			if pt.CrossBytes >= shifted.CrossBytes {
				t.Errorf("P=%d: %s moves %d cross-node bytes, not strictly fewer than shifted's %d",
					procs, slug, pt.CrossBytes, shifted.CrossBytes)
			}
		}
	}
	for _, pt := range sweep.Points {
		if pt.CritSteps == 0 || pt.CritSeconds <= 0 {
			t.Errorf("P=%d %s: missing measured critical path (%d steps, %gs)",
				pt.P, pt.Slug, pt.CritSteps, pt.CritSeconds)
		}
		if pt.MakespanMean <= 0 {
			t.Errorf("P=%d %s: non-positive makespan", pt.P, pt.Slug)
		}
	}

	// The artifact writer must round-trip.
	path := filepath.Join(t.TempDir(), "BENCH_trees.json")
	if err := WriteTreeSweep(path, sweep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back TreeSweep
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(sweep.Points) || back.CoresPerNode != 24 {
		t.Fatalf("artifact round-trip lost data: %d points, cpn=%d", len(back.Points), back.CoresPerNode)
	}
}

// TestObsCrossNodeColumns checks the chain-table side of the criterion: a
// topology-annotated obs run reports cross-node hops per class, and the
// topology-aware schemes meet the nodes-1 spanning-tree reference on the
// broadcast classes while the blind scheme exceeds it somewhere.
func TestObsCrossNodeColumns(t *testing.T) {
	p, grid, err := ObsProblem()
	if err != nil {
		t.Fatal(err)
	}
	// 16 ranks at 8 per node: a 2-node hierarchy whose boundary the 4×4
	// grid's column groups straddle (two members per node), so a blind
	// scheme can waste cross-node hops that the aware ones avoid. (At 4
	// per node every column-group member sits on its own node and all
	// schemes tie at the spanning-tree floor.)
	opts := RunOpts{CoresPerNode: 8}
	schemes := []core.Scheme{core.ShiftedBinaryTree, core.TopoShiftedTree, core.BineTree}
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
			switch m.Scheme {
			case core.TopoShiftedTree, core.BineTree:
				// Every single collective hits the spanning-tree minimum, so
				// the worst one equals the reference.
				if cs.CrossMax > cs.CrossRef {
					t.Errorf("%v %s: crossMax %d exceeds the nodes-1 reference %d",
						m.Scheme, cs.Class, cs.CrossMax, cs.CrossRef)
				}
			}
		}
	}
	for _, s := range []core.Scheme{core.TopoShiftedTree, core.BineTree} {
		if crossSum[s] >= crossSum[core.ShiftedBinaryTree] {
			t.Errorf("%v measured %d cross-node bcast hops, not fewer than shifted's %d",
				s, crossSum[s], crossSum[core.ShiftedBinaryTree])
		}
	}
}
