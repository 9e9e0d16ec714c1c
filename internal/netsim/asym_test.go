package netsim

import (
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/procgrid"
)

func TestAsymmetricPlanSimulates(t *testing.T) {
	bp := realPattern(t)
	for _, scheme := range core.Schemes() {
		plan := core.NewPlanConfig(bp, procgrid.New(4, 4), core.PlanConfig{Scheme: scheme, Seed: 1})
		res := simulate(plan, DefaultParams())
		if res.Makespan <= 0 || res.MsgCount <= 0 {
			t.Fatalf("%v: degenerate asym simulation", scheme)
		}
	}
}

func TestAsymmetricCostsMoreThanSymmetric(t *testing.T) {
	// The general path moves strictly more data (its own Û broadcasts and
	// upper reductions instead of cheap mirror sends), so both the byte
	// count and the makespan must not be smaller.
	bp := realPattern(t)
	grid := procgrid.New(4, 4)
	p := DefaultParams()
	sym := simulate(core.NewPlan(bp, grid, core.ShiftedBinaryTree, 1), p)
	asym := simulate(core.NewPlanConfig(bp, grid, core.PlanConfig{Scheme: core.ShiftedBinaryTree, Seed: 1}), p)
	if asym.BytesMoved <= sym.BytesMoved {
		t.Fatalf("asym moved %d bytes, symmetric %d", asym.BytesMoved, sym.BytesMoved)
	}
	if asym.Makespan < sym.Makespan*0.95 {
		t.Fatalf("asym makespan %g materially below symmetric %g", asym.Makespan, sym.Makespan)
	}
}

func TestAsymmetricDeterministic(t *testing.T) {
	bp := realPattern(t)
	plan := core.NewPlanConfig(bp, procgrid.New(3, 3), core.PlanConfig{Scheme: core.BinaryTree, Seed: 5})
	dag := BuildDAG(plan)
	p := DefaultParams()
	if SimulateDAG(dag, p).Makespan != SimulateDAG(dag, p).Makespan {
		t.Fatal("asym simulation not deterministic")
	}
}
