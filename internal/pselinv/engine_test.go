package pselinv

import (
	"fmt"
	"testing"
	"time"

	"pselinv/internal/blockmat"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/selinv"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

const testTimeout = 60 * time.Second

// prep builds the full pipeline up to the factorization.
func prep(t testing.TB, g *sparse.Generated, opt etree.Options) (*etree.Analysis, *factor.LU, *blockmat.BlockMatrix) {
	t.Helper()
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	an := etree.Analyze(g.A.Permute(perm), perm, opt)
	lu, err := factor.Factorize(an.A, an.BP)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return an, lu, selinv.SelInv(lu)
}

// runAndCompare runs the parallel engine and compares block-for-block with
// the sequential reference.
func runAndCompare(t testing.TB, an *etree.Analysis, lu *factor.LU, ref *blockmat.BlockMatrix,
	grid *procgrid.Grid, scheme core.Scheme, seed uint64) *RunResult {
	t.Helper()
	plan := core.NewPlan(an.BP, grid, scheme, seed)
	res, err := NewEngine(plan, lu).Run(testTimeout)
	if err != nil {
		t.Fatalf("grid %v scheme %v: %v", grid, scheme, err)
	}
	if cerr := res.World.CheckConservation(); cerr != nil {
		t.Fatalf("grid %v scheme %v: %v", grid, scheme, cerr)
	}
	requireMatchesReference(t, fmt.Sprintf("grid %v scheme %v", grid, scheme), ref, bitsOf(res.Ainv), false)
	return res
}

// TestEngineBodyRunConserved drives the engine's rank body through the
// simmpi.RunConserved helper, so the conservation property is asserted by
// the test harness itself, independently of Engine.Run's internal check.
func TestEngineBodyRunConserved(t *testing.T) {
	g := sparse.Grid2D(6, 6, 4)
	an, lu, _ := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	plan := core.NewPlan(an.BP, procgrid.New(3, 3), core.ShiftedBinaryTree, 5)
	eng := NewEngine(plan, lu)
	w := simmpi.NewWorld(plan.Grid.Size())
	states := popStates(w)
	simmpi.RunConserved(t, w, testTimeout, func(r *simmpi.Rank) {
		st := eng.bind(states, r)
		st.runPass1()
		r.Barrier()
		st.runPass2()
	})
	for _, st := range states {
		for _, m := range st.ainv {
			dense.PutMatrix(m)
		}
		st.recycle()
	}
}

func TestVolumeConservationAndClasses(t *testing.T) {
	g := sparse.Grid2D(8, 8, 2)
	an, lu, _ := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	plan := core.NewPlan(an.BP, procgrid.New(4, 4), core.ShiftedBinaryTree, 3)
	res, err := NewEngine(plan, lu).Run(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.World.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// The heavy classes of the paper must actually carry volume.
	var colBcast, rowReduce int64
	for r := 0; r < res.World.P; r++ {
		colBcast += res.World.SentBytes(r, simmpi.ClassColBcast)
		rowReduce += res.World.RecvBytes(r, simmpi.ClassRowReduce)
	}
	if colBcast == 0 || rowReduce == 0 {
		t.Fatalf("expected non-zero Col-Bcast (%d) and Row-Reduce (%d) volume", colBcast, rowReduce)
	}
}

func TestSchemeChangesVolumeDistributionNotTotalResult(t *testing.T) {
	// Different schemes redistribute forwarding load; totals per scheme
	// differ (trees relay data) but numerics are identical (checked
	// elsewhere). Here: flat tree root sends |parts|-1 messages while
	// binary root sends at most 2 per collective.
	g := sparse.Grid2D(9, 9, 4)
	an, lu, _ := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	grid := procgrid.New(6, 6)
	maxSent := func(scheme core.Scheme) int64 {
		plan := core.NewPlan(an.BP, grid, scheme, 5)
		res, err := NewEngine(plan, lu).Run(testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		var m int64
		for r := 0; r < res.World.P; r++ {
			if v := res.World.TotalSent(r); v > m {
				m = v
			}
		}
		return m
	}
	flat := maxSent(core.FlatTree)
	shifted := maxSent(core.ShiftedBinaryTree)
	if flat <= 0 || shifted <= 0 {
		t.Fatal("no traffic measured")
	}
	t.Logf("max per-rank sent: flat=%d shifted=%d", flat, shifted)
}

func BenchmarkParallelGrid2D12_P16(b *testing.B) {
	g := sparse.Grid2D(12, 12, 1)
	an, lu, _ := prep(b, g, etree.Options{Relax: 4, MaxWidth: 16})
	plan := core.NewPlan(an.BP, procgrid.New(4, 4), core.ShiftedBinaryTree, 1)
	eng := NewEngine(plan, lu)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(testTimeout); err != nil {
			b.Fatal(err)
		}
	}
}
