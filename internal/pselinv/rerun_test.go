package pselinv

import (
	"fmt"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

// TestEngineReusableAcrossRuns verifies the documented contract that an
// Engine may be Run repeatedly, each run getting fresh state and producing
// identical results and identical volume counters.
func TestEngineReusableAcrossRuns(t *testing.T) {
	g := sparse.Grid2D(7, 6, 2)
	an, lu, ref := prep(t, g, etree.Options{MaxWidth: 6})
	plan := core.NewPlan(an.BP, procgrid.New(3, 3), core.ShiftedBinaryTree, 5)
	eng := NewEngine(plan, lu)
	var prevVolumes []int64
	for run := 0; run < 3; run++ {
		res, err := eng.Run(testTimeout)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		requireMatchesReference(t, fmt.Sprintf("run %d", run), ref, bitsOf(res.Ainv), false)
		vols := make([]int64, res.World.P)
		for r := 0; r < res.World.P; r++ {
			vols[r] = res.World.TotalSent(r)
		}
		if prevVolumes != nil {
			for r := range vols {
				if vols[r] != prevVolumes[r] {
					t.Fatalf("run %d: volumes drifted at rank %d", run, r)
				}
			}
		}
		prevVolumes = vols
	}
}

// TestHybridPlanMixesTreeShapes checks that a single Hybrid plan really
// contains both flat and binary-shaped collectives when participant counts
// straddle the threshold.
func TestHybridPlanMixesTreeShapes(t *testing.T) {
	g := sparse.Grid3D(5, 5, 5, 3)
	an, _, _ := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	grid := procgrid.New(8, 8)
	thr := 4
	plan := core.NewPlanConfig(an.BP, grid, core.PlanConfig{Scheme: core.Hybrid, Seed: 1, HybridThreshold: thr, Symmetric: true})
	sawFlat, sawBinary := false, false
	for _, sp := range plan.Snodes {
		for x := range sp.ColBcasts {
			tr := sp.ColBcasts[x].Tree
			if tr.Size() <= 1 {
				continue
			}
			if tr.Size() <= thr {
				if tr.Depth() == 1 {
					sawFlat = true
				}
			} else if len(tr.Children(tr.Root)) <= 2 && tr.Size() > 3 {
				sawBinary = true
			}
		}
	}
	if !sawFlat || !sawBinary {
		t.Fatalf("hybrid plan did not mix shapes: flat=%v binary=%v", sawFlat, sawBinary)
	}
}
