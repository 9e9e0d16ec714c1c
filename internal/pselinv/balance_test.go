package pselinv

import (
	"math"
	"testing"

	"pselinv/internal/blockmat"
	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

// requireNearReference asserts a run snapshot agrees with the serial
// reference block for block within the parity tolerance.
func requireNearReference(t *testing.T, label string, ref *blockmat.BlockMatrix, got map[blockmat.Key][]float64) {
	t.Helper()
	keys := ref.Keys()
	if len(keys) != len(got) {
		t.Fatalf("%s: %d blocks computed, want %d", label, len(got), len(keys))
	}
	for _, key := range keys {
		want := ref.MustGet(key.I, key.J)
		g := got[blockmat.Key{I: key.I, J: key.J}]
		if len(g) != len(want.Data) {
			t.Fatalf("%s: block (%d,%d) has %d words, want %d", label, key.I, key.J, len(g), len(want.Data))
		}
		for x := range want.Data {
			if d := math.Abs(g[x] - want.Data[x]); d > 1e-9 {
				t.Fatalf("%s: block (%d,%d) off by %g", label, key.I, key.J, d)
			}
		}
	}
}

// TestBalancersMatchReference is the balancers' parity contract: the owner
// map decides who computes, who forwards and in which bracketing a
// reduction folds — so two balancers agree to rounding, not to the bit —
// but never what is computed. Every balancer must reproduce the serial
// reference within 1e-9 at P ∈ {4, 16} across the paper's three schemes.
func TestBalancersMatchReference(t *testing.T) {
	g := sparse.Grid2D(8, 8, 3)
	an, lu, ref := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	for _, dims := range [][2]int{{2, 2}, {4, 4}} {
		grid := procgrid.New(dims[0], dims[1])
		for _, scheme := range []core.Scheme{core.FlatTree, core.BinaryTree, core.ShiftedBinaryTree} {
			for _, b := range core.AllBalancers() {
				got := runPlan(t, core.NewPlanConfig(an.BP, grid, core.PlanConfig{
					Scheme: scheme, Seed: 3, Symmetric: true, Balancer: b,
				}), lu, false)
				requireNearReference(t, grid.String()+" "+scheme.Slug()+" "+b.Slug(), ref, got)
			}
		}
	}
}

// TestBalancersMatchReferenceDag extends the contract to task-DAG execution
// with real pool concurrency: per balancer, the DAG run is bit-identical to
// the sequential run of the same plan, and both match the reference.
func TestBalancersMatchReferenceDag(t *testing.T) {
	withPoolWorkers(t, 4)
	g := sparse.Grid2D(8, 8, 3)
	an, lu, ref := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	grid := procgrid.New(4, 4)
	for _, b := range core.AllBalancers() {
		mk := func() *core.Plan {
			return core.NewPlanConfig(an.BP, grid, core.PlanConfig{
				Scheme: core.ShiftedBinaryTree, Seed: 3, Symmetric: true, Balancer: b,
			})
		}
		seq := runPlan(t, mk(), lu, false)
		dag := runPlan(t, mk(), lu, true)
		if msg := diffBits(seq, dag); msg != "" {
			t.Fatalf("%v: dag vs sequential: %s", b, msg)
		}
		requireNearReference(t, b.Slug()+" dag", ref, dag)
	}
}

// TestBalancersMatchReferenceAsym covers the general (asymmetric-value)
// path: the Û broadcasts and upper-triangle reductions route through the
// same owner map, so the contract must hold there too.
func TestBalancersMatchReferenceAsym(t *testing.T) {
	g := sparse.Asymmetrize(sparse.Grid2D(8, 8, 3), 7, 0.6)
	an, lu, ref := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	grid := procgrid.New(4, 4)
	for _, b := range core.AllBalancers() {
		got := runPlan(t, core.NewPlanConfig(an.BP, grid, core.PlanConfig{
			Scheme: core.ShiftedBinaryTree, Seed: 3, Symmetric: false, Balancer: b,
		}), lu, false)
		requireNearReference(t, b.Slug()+" asym", ref, got)
	}
}
