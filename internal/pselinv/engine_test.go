package pselinv

import (
	"math/rand"
	"testing"
	"testing/quick"
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
	refKeys := ref.Keys()
	gotKeys := res.Ainv.Keys()
	if len(refKeys) != len(gotKeys) {
		t.Fatalf("grid %v scheme %v: %d blocks computed, want %d",
			grid, scheme, len(gotKeys), len(refKeys))
	}
	for _, key := range refKeys {
		want := ref.MustGet(key.I, key.J)
		got, ok := res.Ainv.Get(key.I, key.J)
		if !ok {
			t.Fatalf("grid %v scheme %v: block (%d,%d) missing", grid, scheme, key.I, key.J)
		}
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("grid %v scheme %v: block (%d,%d) differs by %g", grid, scheme, key.I, key.J, d)
		}
	}
	return res
}

func TestParallelMatchesSequentialAcrossGrids(t *testing.T) {
	g := sparse.Grid2D(7, 7, 3)
	an, lu, ref := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	for _, dims := range [][2]int{{1, 1}, {1, 3}, {2, 2}, {3, 2}, {4, 3}, {5, 5}, {6, 5}} {
		runAndCompare(t, an, lu, ref, procgrid.New(dims[0], dims[1]), core.ShiftedBinaryTree, 1)
	}
}

func TestParallelMatchesSequentialAllSchemes(t *testing.T) {
	g := sparse.Grid2D(8, 6, 5)
	an, lu, ref := prep(t, g, etree.Options{Relax: 2, MaxWidth: 6})
	grid := procgrid.New(3, 4)
	for _, scheme := range []core.Scheme{
		core.FlatTree, core.BinaryTree, core.ShiftedBinaryTree,
		core.RandomPermTree, core.Hybrid,
	} {
		runAndCompare(t, an, lu, ref, grid, scheme, 7)
	}
}

func TestParallelMatchesSequentialMatrixZoo(t *testing.T) {
	for _, g := range []*sparse.Generated{
		sparse.Banded(20, 2, 1),
		sparse.Grid3D(3, 3, 3, 2),
		sparse.RandomSym(40, 4, 3),
		sparse.DG2D(3, 3, 3, 4),
	} {
		an, lu, ref := prep(t, g, etree.Options{Relax: 1, MaxWidth: 8})
		runAndCompare(t, an, lu, ref, procgrid.New(3, 3), core.ShiftedBinaryTree, 11)
	}
}

func TestParallelManySeeds(t *testing.T) {
	// The shift is random per seed; numerics must be identical regardless.
	g := sparse.Grid2D(6, 6, 9)
	an, lu, ref := prep(t, g, etree.Options{MaxWidth: 4})
	grid := procgrid.New(4, 3)
	for seed := uint64(0); seed < 8; seed++ {
		runAndCompare(t, an, lu, ref, grid, core.ShiftedBinaryTree, seed)
	}
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
	states := eng.tmpl.takeStates()
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
		st.clear()
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

// Property: parallel result matches sequential for random matrices, grids,
// schemes and seeds.
func TestQuickParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := sparse.RandomSym(15+rng.Intn(25), 2+rng.Intn(3), seed)
		perm := ordering.Compute(ordering.MinimumDegree, g.A, nil)
		an := etree.Analyze(g.A.Permute(perm), perm,
			etree.Options{Relax: rng.Intn(2), MaxWidth: 1 + rng.Intn(6)})
		lu, err := factor.Factorize(an.A, an.BP)
		if err != nil {
			return false
		}
		ref := selinv.SelInv(lu)
		grid := procgrid.New(1+rng.Intn(4), 1+rng.Intn(4))
		scheme := []core.Scheme{core.FlatTree, core.BinaryTree,
			core.ShiftedBinaryTree, core.Hybrid}[rng.Intn(4)]
		plan := core.NewPlan(an.BP, grid, scheme, rng.Uint64())
		res, err := NewEngine(plan, lu).Run(testTimeout)
		if err != nil {
			return false
		}
		for _, key := range ref.Keys() {
			got, ok := res.Ainv.Get(key.I, key.J)
			if !ok || got.MaxAbsDiff(ref.MustGet(key.I, key.J)) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
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
