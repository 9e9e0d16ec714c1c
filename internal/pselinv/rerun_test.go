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
