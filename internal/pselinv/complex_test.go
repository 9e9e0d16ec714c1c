// Complex parity suite: the distributed engine running a complex-shifted
// factorization against the serial reference (internal/selinv). Both sides
// share the factorization and the element-generic dense kernels, and a
// reduction's fold order is a property of the plan alone, so for one plan
// the result is BIT-identical whatever the DAG setting, delivery order or
// transport. The plan follows the values, as everywhere else: symmetric A
// makes A − zI complex symmetric (plain transpose) and runs the symmetric
// plan, an Asymmetrize'd A the general one. Across plans (scheme, balancer,
// process count) the bracketing of the reductions differs and the runs
// agree with the reference within 1e-9; a single rank of the plan the values
// select folds in the reference's own order and stays bit-identical to it —
// the general plan on general values, and the symmetric plan on symmetric
// ones, for which the factorization stores no U and the reference, like the
// plan, reads L̂ᵀ for Û (the general plan bound to such a factorization forms
// U from L and agrees to rounding only). The file lives in
// the external test package, next to the other suites that drive the
// engine only through its exported surface.
package pselinv_test

import (
	"math"
	"math/cmplx"
	"testing"

	"pselinv/internal/blockmat"
	"pselinv/internal/chaos"
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
		Scheme: scheme, Seed: 1, Symmetric: lu.Symmetric, Balancer: balancer,
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

// bothSymmetries generates a matrix twice and Asymmetrizes the second one
// (in place): the inputs of the symmetric and of the general plan.
func bothSymmetries(gen func() *sparse.Generated) []*sparse.Generated {
	return []*sparse.Generated{gen(), sparse.Asymmetrize(gen(), 7, 0.4)}
}

// TestComplexParallelMatchesSerial is the headline parity matrix:
// {symmetric, asymmetric values} × P ∈ {1, 4} × {flat, binary, shifted} ×
// {cyclic, work}, within tolerance everywhere and bit-exact on one rank.
func TestComplexParallelMatchesSerial(t *testing.T) {
	for x, g := range bothSymmetries(func() *sparse.Generated { return sparse.Grid2D(6, 6, 3) }) {
		an, lu, ref := prepComplex(t, g, etree.Options{Relax: 2, MaxWidth: 6}, complex(0.5, 1.5))
		if lu.Symmetric != (x == 0) {
			t.Fatalf("%s: factorization recorded Symmetric=%v", g.Name, lu.Symmetric)
		}
		for _, dims := range [][2]int{{1, 1}, {2, 2}} {
			grid := procgrid.New(dims[0], dims[1])
			for _, scheme := range []core.Scheme{core.FlatTree, core.BinaryTree, core.ShiftedBinaryTree} {
				for _, bal := range []core.Balancer{core.CyclicBalancer, core.WorkBalancer} {
					got := runComplex(t, an, lu, grid, scheme, bal, false)
					requireComplexParity(t, g.Name+" "+grid.String()+" "+scheme.Slug()+" "+bal.Slug(),
						ref, got, grid.Size() == 1)
				}
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
	for _, g := range bothSymmetries(func() *sparse.Generated { return sparse.Grid2D(6, 6, 4) }) {
		an, lu, ref := prepComplex(t, g, etree.Options{Relax: 2, MaxWidth: 6}, complex(-0.25, 2))
		for _, dims := range [][2]int{{1, 1}, {2, 2}} {
			grid := procgrid.New(dims[0], dims[1])
			for _, bal := range []core.Balancer{core.CyclicBalancer, core.WorkBalancer} {
				label := g.Name + " " + grid.String() + " " + bal.Slug()
				seq := runComplex(t, an, lu, grid, core.ShiftedBinaryTree, bal, false)
				dag := runComplex(t, an, lu, grid, core.ShiftedBinaryTree, bal, true)
				requireSameBits(t, label+" dag vs sequential", seq, dag)
				requireComplexParity(t, label+" dag", ref, dag, grid.Size() == 1)
			}
		}
	}
}

// shiftedInverse inverts A − zI densely through the pivoted real inverse of
// the 2n×2n embedding [[Re, −Im], [Im, Re]] — an oracle that shares no
// complex kernel, no supernodal structure and no transpose identity with
// the engine.
func shiftedInverse(t testing.TB, a *sparse.CSC, z complex128) func(i, j int) complex128 {
	t.Helper()
	n := a.N
	m := dense.NewMatrix(2*n, 2*n)
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			m.Set(a.RowIdx[k], j, a.Val[k])
			m.Set(n+a.RowIdx[k], n+j, a.Val[k])
		}
		m.Add(j, j, -real(z))
		m.Add(n+j, n+j, -real(z))
		m.Set(j, n+j, imag(z))
		m.Set(n+j, j, -imag(z))
	}
	inv, err := dense.Inverse(m)
	if err != nil {
		t.Fatal(err)
	}
	return func(i, j int) complex128 { return complex(inv.At(i, j), inv.At(n+i, j)) }
}

// TestComplexMatrixZoo runs matrix families (banded, 3-D grid, random
// symmetric pattern, DG) on the 2×2 grid, each on the plan its values
// select, against the serial reference and against the dense embedding
// oracle: every stored block within 1e-8, the diagonal within 1e-9.
func TestComplexMatrixZoo(t *testing.T) {
	z := complex(1, 2)
	for _, gen := range []func() *sparse.Generated{
		func() *sparse.Generated { return sparse.Banded(20, 2, 1) },
		func() *sparse.Generated { return sparse.Grid3D(3, 3, 3, 2) },
		func() *sparse.Generated { return sparse.RandomSym(40, 4, 3) },
		func() *sparse.Generated { return sparse.DG2D(3, 3, 3, 4) },
	} {
		for _, g := range bothSymmetries(gen) {
			an, lu, ref := prepComplex(t, g, etree.Options{Relax: 1, MaxWidth: 8}, z)
			got := runComplex(t, an, lu, procgrid.New(2, 2), core.ShiftedBinaryTree, core.CyclicBalancer, false)
			requireComplexParity(t, g.Name, ref, got, false)
			want := shiftedInverse(t, an.A, z)
			part := an.BP.Part
			for key, data := range got {
				rows := part.Width(key.I)
				r0, c0 := part.Start[key.I], part.Start[key.J]
				for x := 0; x < len(data)/2; x++ {
					i, j := r0+x%rows, c0+x/rows
					tol := 1e-8
					if i == j {
						tol = 1e-9
					}
					if d := cmplx.Abs(complex(data[2*x], data[2*x+1]) - want(i, j)); !(d <= tol) {
						t.Fatalf("%s (symmetric plan %v): entry (%d,%d) off the dense oracle by %g",
							g.Name, lu.Symmetric, i, j, d)
					}
				}
			}
		}
	}
}

// TestComplexChaosSweep runs the seeded delivery adversary against a
// complex engine on the symmetric and on the general plan: every seed must
// reproduce the unperturbed baseline of the same plan bit for bit. The
// sweep is -chaos-seeds wide per plan, so `make chaos` (CI: 8 seeds under
// the race detector, nightly: 64) covers the complex-symmetric path.
func TestComplexChaosSweep(t *testing.T) {
	for x, g := range bothSymmetries(func() *sparse.Generated { return sparse.Grid2D(6, 6, 3) }) {
		an, lu, _ := prepComplex(t, g, etree.Options{Relax: 2, MaxWidth: 6}, complex(0.5, 1))
		plan := core.NewPlanConfig(an.BP, procgrid.New(2, 2), core.PlanConfig{
			Scheme: core.ShiftedBinaryTree, Seed: 1, Symmetric: lu.Symmetric,
		})
		eng := pselinv.NewEngine(plan, lu)
		chaosSweep(t, eng, chaos.Config{},
			seedRange(9000+500*uint64(x), *chaosSeeds), chaosTimeout)
	}
}
