// Complex parity suite: the distributed engine running a complex-shifted
// factorization against the serial reference (internal/selinv). Both sides share the
// factorization and the element-generic dense kernels, and a reduction's
// fold order is a property of the plan alone, so for one plan the result
// is BIT-identical whatever the DAG setting, delivery order or transport.
// Across plans (scheme, balancer, process count) the bracketing of the
// reductions differs: a single rank folds in the reference's own order and
// stays bit-identical to it, several ranks agree with it within 1e-9. The
// file lives in the external test package, next to the other suites that
// drive the engine only through its exported surface.
package pselinv_test

import (
	"math"
	"testing"

	"pselinv/internal/blockmat"
	"pselinv/internal/chaos"
	"pselinv/internal/chaos/chaostest"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/pselinv"
	"pselinv/internal/selinv"
	"pselinv/internal/sparse"
)

// prepComplex analyzes g, factorizes A − zI once, and runs the serial
// reference over that same factorization — the engine under test consumes
// the identical LU object, so any bit difference is the engine's own.
func prepComplex(t testing.TB, g *sparse.Generated, opt etree.Options,
	z complex128) (*etree.Analysis, *factor.LU, *blockmat.BlockMatrix) {
	t.Helper()
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	an := etree.Analyze(g.A.Permute(perm), perm, opt)
	lu, err := factor.FactorizeShifted(an.A, z, an.BP)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return an, lu, selinv.SelInv(lu)
}

// runComplex runs the parallel engine on one plan and snapshots its blocks
// (the interleaved complex storage).
func runComplex(t testing.TB, an *etree.Analysis, lu *factor.LU, grid *procgrid.Grid,
	scheme core.Scheme, balancer core.Balancer, dag bool) map[blockmat.Key][]float64 {
	t.Helper()
	plan := core.NewPlanConfig(an.BP, grid, core.PlanConfig{
		Scheme: scheme, Seed: 1, Symmetric: false, Balancer: balancer,
	})
	eng := pselinv.NewEngine(plan, lu)
	eng.DAG = dag
	res, err := eng.Run(chaosTimeout)
	if err != nil {
		t.Fatalf("grid %v scheme %v balancer %v dag %v: %v", grid, scheme, balancer, dag, err)
	}
	defer res.Release()
	if cerr := res.World.CheckConservation(); cerr != nil {
		t.Fatalf("grid %v scheme %v: %v", grid, scheme, cerr)
	}
	out := map[blockmat.Key][]float64{}
	res.Ainv.Range(func(key blockmat.Key, b *dense.Matrix) {
		if b.Elem != dense.Complex {
			t.Fatalf("block (%d,%d) is %v, want Complex", key.I, key.J, b.Elem)
		}
		out[key] = append([]float64(nil), b.Data...)
	})
	return out
}

// requireComplexParity compares a run snapshot with the serial reference:
// word for word on bits when exact, within 1e-9 otherwise.
func requireComplexParity(t testing.TB, label string, ref *blockmat.BlockMatrix,
	got map[blockmat.Key][]float64, exact bool) {
	t.Helper()
	if len(got) != ref.NumBlocks() {
		t.Fatalf("%s: %d blocks computed, want %d", label, len(got), ref.NumBlocks())
	}
	for key := range got {
		want, ok := ref.Get(key.I, key.J)
		if !ok {
			t.Fatalf("%s: block (%d,%d) absent from the reference", label, key.I, key.J)
		}
		g := got[key]
		if len(g) != len(want.Data) {
			t.Fatalf("%s: block (%d,%d): payload %d words, want %d", label, key.I, key.J, len(g), len(want.Data))
		}
		for x := range want.Data {
			if exact && math.Float64bits(g[x]) != math.Float64bits(want.Data[x]) {
				t.Fatalf("%s: block (%d,%d) word %d: %x != %x — not bit-identical",
					label, key.I, key.J, x, math.Float64bits(g[x]), math.Float64bits(want.Data[x]))
			}
			if d := math.Abs(g[x] - want.Data[x]); !(d <= 1e-9) {
				t.Fatalf("%s: block (%d,%d) word %d off by %g", label, key.I, key.J, x, d)
			}
		}
	}
}

// requireSameBits asserts two run snapshots of one plan are bit-identical.
func requireSameBits(t testing.TB, label string, a, b map[blockmat.Key][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d blocks vs %d", label, len(a), len(b))
	}
	for key, av := range a {
		bv := b[key]
		if len(av) != len(bv) {
			t.Fatalf("%s: block (%d,%d) sizes differ", label, key.I, key.J)
		}
		for x := range av {
			if math.Float64bits(av[x]) != math.Float64bits(bv[x]) {
				t.Fatalf("%s: block (%d,%d) word %d not bit-identical", label, key.I, key.J, x)
			}
		}
	}
}

// TestComplexParallelMatchesSerial is the headline parity matrix:
// P ∈ {1, 4} × {flat, binary, shifted} × {cyclic, work}, bit-exact on one
// rank and within tolerance on four.
func TestComplexParallelMatchesSerial(t *testing.T) {
	g := sparse.Grid2D(6, 6, 3)
	an, lu, ref := prepComplex(t, g, etree.Options{Relax: 2, MaxWidth: 6}, complex(0.5, 1.5))
	for _, dims := range [][2]int{{1, 1}, {2, 2}} {
		grid := procgrid.New(dims[0], dims[1])
		for _, scheme := range []core.Scheme{core.FlatTree, core.BinaryTree, core.ShiftedBinaryTree} {
			for _, bal := range []core.Balancer{core.CyclicBalancer, core.WorkBalancer} {
				got := runComplex(t, an, lu, grid, scheme, bal, false)
				requireComplexParity(t, grid.String()+" "+scheme.Slug()+" "+bal.Slug(), ref, got, grid.Size() == 1)
			}
		}
	}
}

// TestComplexParallelDagBitIdentical repeats the check with the task-DAG
// scheduler enabled and the worker pool genuinely concurrent: the DAG run
// must equal the sequential run of the same plan bit for bit.
func TestComplexParallelDagBitIdentical(t *testing.T) {
	dense.SetWorkers(4)
	defer dense.SetWorkers(0)
	g := sparse.Grid2D(6, 6, 4)
	an, lu, ref := prepComplex(t, g, etree.Options{Relax: 2, MaxWidth: 6}, complex(-0.25, 2))
	for _, dims := range [][2]int{{1, 1}, {2, 2}} {
		grid := procgrid.New(dims[0], dims[1])
		for _, bal := range []core.Balancer{core.CyclicBalancer, core.WorkBalancer} {
			label := grid.String() + " " + bal.Slug()
			seq := runComplex(t, an, lu, grid, core.ShiftedBinaryTree, bal, false)
			dag := runComplex(t, an, lu, grid, core.ShiftedBinaryTree, bal, true)
			requireSameBits(t, label+" dag vs sequential", seq, dag)
			requireComplexParity(t, label+" dag", ref, dag, grid.Size() == 1)
		}
	}
}

// TestComplexMatrixZoo runs the parity check across matrix families
// (banded, 3-D grid, random symmetric pattern, DG) on the 2×2 grid.
func TestComplexMatrixZoo(t *testing.T) {
	for _, g := range []*sparse.Generated{
		sparse.Banded(20, 2, 1),
		sparse.Grid3D(3, 3, 3, 2),
		sparse.RandomSym(40, 4, 3),
		sparse.DG2D(3, 3, 3, 4),
	} {
		an, lu, ref := prepComplex(t, g, etree.Options{Relax: 1, MaxWidth: 8}, complex(1, 2))
		got := runComplex(t, an, lu, procgrid.New(2, 2), core.ShiftedBinaryTree, core.CyclicBalancer, false)
		requireComplexParity(t, g.Name, ref, got, false)
	}
}

// TestComplexChaosSweep runs the seeded delivery adversary against a
// complex engine: every seed must reproduce the unperturbed baseline bit
// for bit.
func TestComplexChaosSweep(t *testing.T) {
	g := sparse.Grid2D(6, 6, 3)
	an, lu, _ := prepComplex(t, g, etree.Options{Relax: 2, MaxWidth: 6}, complex(0.5, 1))
	plan := core.NewPlanConfig(an.BP, procgrid.New(2, 2), core.PlanConfig{
		Scheme: core.ShiftedBinaryTree, Seed: 1, Symmetric: false,
	})
	eng := pselinv.NewEngine(plan, lu)
	chaostest.Sweep(t, eng, chaos.Config{DupDetect: true},
		chaostest.Seeds(9000, 8), chaosTimeout)
}

// TestComplexSymmetricPlanRejected pins the guard: the symmetric path's
// transpose mirror has no complex kernel, so a complex factorization on a
// symmetric plan must fail loudly instead of producing garbage.
func TestComplexSymmetricPlanRejected(t *testing.T) {
	g := sparse.Grid2D(5, 5, 2)
	an, lu, _ := prepComplex(t, g, etree.Options{MaxWidth: 5}, complex(0, 1))
	plan := core.NewPlan(an.BP, procgrid.New(2, 2), core.ShiftedBinaryTree, 1)
	if _, err := pselinv.NewEngine(plan, lu).Run(chaosTimeout); err == nil {
		t.Fatal("complex factorization on a symmetric plan did not error")
	}
}
