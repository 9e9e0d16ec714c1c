package main

import (
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/exp"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

// TestMain runs the command itself instead of the tests when
// SCALING_RUN_MAIN is set, so that a test can re-execute the test binary as
// scaling and check how it exits.
func TestMain(m *testing.M) {
	if os.Getenv("SCALING_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSeedsBelowOneIsUsageError: a point needs at least one placement seed,
// so -seeds 0 (or negative) is a usage error, exit 2 with a message; it used
// to panic slicing the seed list.
func TestSeedsBelowOneIsUsageError(t *testing.T) {
	for _, seeds := range []string{"0", "-2"} {
		args := []string{"-fig9", "-quick", "-seeds", seeds}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "SCALING_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.HasPrefix(string(out), "scaling: -seeds") {
			t.Errorf("scaling %v: %v, output:\n%s", args, err, out)
		}
	}
}

// TestReportOneSeed: with -seeds 1 every point's std is zero, and the
// Figure 8 summary used to panic averaging an empty list of std ratios.
func TestReportOneSeed(t *testing.T) {
	ps := []int{64, 1024}
	byP := map[int]map[core.Scheme]*exp.ScalingPoint{}
	for _, p := range ps {
		byP[p] = map[core.Scheme]*exp.ScalingPoint{
			core.FlatTree:          {P: p, Scheme: core.FlatTree, Mean: 2},
			core.ShiftedBinaryTree: {P: p, Scheme: core.ShiftedBinaryTree, Mean: 1},
		}
	}
	report(byP, ps)
}

// TestHybridSweepPureShiftedRow: the sweep's pure-shifted row must plan
// exactly the trees of the ShiftedBinaryTree plan. It used to pass a zero
// threshold, which the plan reads as the default 24, so the row repeated
// the 24 row.
func TestHybridSweepPureShiftedRow(t *testing.T) {
	row := hybridSweep[0]
	if !strings.Contains(row.label, "pure shifted") {
		t.Fatalf("first sweep row is %q, want the pure-shifted one", row.label)
	}
	g := sparse.Grid2D(12, 12, 1)
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	bp := etree.Analyze(g.A.Permute(perm), perm, etree.Options{Relax: 2, MaxWidth: 8}).BP
	grid := procgrid.New(4, 4)
	hybrid := core.NewPlanConfig(bp, grid, core.PlanConfig{Scheme: core.Hybrid, Seed: 1, HybridThreshold: row.threshold})
	shifted := core.NewPlanConfig(bp, grid, core.PlanConfig{Scheme: core.ShiftedBinaryTree, Seed: 1})
	var trees []*core.Tree
	for _, sp := range shifted.Snodes {
		sp.EachOp(func(op *core.CollOp) { trees = append(trees, op.Tree) }, func(*core.PointOp) {})
	}
	n, wide := 0, 0
	for _, sp := range hybrid.Snodes {
		sp.EachOp(func(op *core.CollOp) {
			want := trees[n]
			n++
			if want.Size() > 3 {
				wide++
			}
			for _, r := range want.Participants() {
				if !slices.Equal(op.Tree.Children(r), want.Children(r)) {
					t.Fatalf("%v K=%d blk=%d: rank %d has children %v, shifted has %v",
						op.Kind, op.K, op.Blk, r, op.Tree.Children(r), want.Children(r))
				}
			}
		}, func(*core.PointOp) {})
	}
	if n != len(trees) || wide == 0 {
		t.Fatalf("compared %d of %d trees, %d wider than 3 ranks", n, len(trees), wide)
	}
}
