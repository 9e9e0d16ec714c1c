package pselinv

import (
	"fmt"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/procgrid"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// classOf maps every plan op kind to the engine's accounting class. The
// general path's pass-1 row broadcast is accounted with the column
// broadcast, and its Û cross-sends with the L̂ ones.
var classOf = map[core.OpKind]simmpi.Class{
	core.OpDiagBcast:    simmpi.ClassDiagBcast,
	core.OpDiagBcastRow: simmpi.ClassDiagBcast,
	core.OpCrossSend:    simmpi.ClassCrossSend,
	core.OpCrossSendU:   simmpi.ClassCrossSend,
	core.OpColBcast:     simmpi.ClassColBcast,
	core.OpRowBcast:     simmpi.ClassRowBcast,
	core.OpRowReduce:    simmpi.ClassRowReduce,
	core.OpColReduce:    simmpi.ClassColReduce,
	core.OpDiagReduce:   simmpi.ClassDiagReduce,
	core.OpSymmSend:     simmpi.ClassSymmSend,
}

// requireVolumesMatchPlan asserts that the executed traffic IS the plan:
// for every class and every rank, bytes sent and bytes received equal the
// plan's one-block-per-edge count over the op kinds of that class, scaled
// by the element width ew (the plan counts real words).
func requireVolumesMatchPlan(t *testing.T, label string, plan *core.Plan, w *simmpi.World, ew int) {
	t.Helper()
	wantSent := map[simmpi.Class][]int64{}
	wantRecv := map[simmpi.Class][]int64{}
	for kind, class := range classOf {
		if wantSent[class] == nil {
			wantSent[class] = make([]int64, w.P)
			wantRecv[class] = make([]int64, w.P)
		}
		sent, recv := plan.PerRankSent(kind), plan.PerRankRecv(kind)
		for r := 0; r < w.P; r++ {
			wantSent[class][r] += sent[r] * int64(ew)
			wantRecv[class][r] += recv[r] * int64(ew)
		}
	}
	for _, class := range simmpi.Classes() {
		for r := 0; r < w.P; r++ {
			var ws, wr int64
			if wantSent[class] != nil {
				ws, wr = wantSent[class][r], wantRecv[class][r]
			}
			if got := w.SentBytes(r, class); got != ws {
				t.Errorf("%s class %v rank %d: sent %d bytes, plan predicts %d", label, class, r, got, ws)
			}
			if got := w.RecvBytes(r, class); got != wr {
				t.Errorf("%s class %v rank %d: received %d bytes, plan predicts %d", label, class, r, got, wr)
			}
		}
	}
	// The engine's all-class counter against the analytic sum.
	for r, total := range plan.PerRankTotalSent() {
		if got := w.TotalSent(r); got != total*int64(ew) {
			t.Errorf("%s rank %d: total sent %d, plan predicts %d", label, r, got, total*int64(ew))
		}
	}
	if err := w.CheckConservation(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

// volumeMode is one (path, element type) combination of the engine.
type volumeMode struct {
	name      string
	symmetric bool
	lu        *factor.LU
}

// volumeModes returns the real symmetric, real general and complex general
// modes over one analysis.
func volumeModes(t *testing.T, an *etree.Analysis, lu *factor.LU) []volumeMode {
	t.Helper()
	zlu, err := factor.FactorizeShifted(an.A, complex(0.5, 1.5), an.BP)
	if err != nil {
		t.Fatal(err)
	}
	return []volumeMode{
		{"real-symmetric", true, lu},
		{"real-general", false, lu},
		{"complex-general", false, zlu},
	}
}

// TestMeasuredVolumesMatchPlanExactly cross-validates the executed traffic
// against the analytic plan on several grids and schemes, in every engine
// mode: {sequential, DAG} × {real symmetric, real general, complex general}.
func TestMeasuredVolumesMatchPlanExactly(t *testing.T) {
	withPoolWorkers(t, 4)
	g := sparse.Grid2D(9, 8, 6)
	an, lu, _ := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	for _, mode := range volumeModes(t, an, lu) {
		for _, dims := range [][2]int{{1, 1}, {2, 3}, {4, 4}, {5, 3}} {
			grid := procgrid.New(dims[0], dims[1])
			for _, scheme := range []core.Scheme{core.FlatTree, core.BinaryTree, core.ShiftedBinaryTree} {
				for _, dag := range []bool{false, true} {
					label := fmt.Sprintf("%s grid %v scheme %v dag=%v", mode.name, grid, scheme, dag)
					plan := core.NewPlanConfig(an.BP, grid, core.PlanConfig{Scheme: scheme, Seed: 9, Symmetric: mode.symmetric})
					eng := NewEngine(plan, mode.lu)
					eng.DAG = dag
					res, err := eng.Run(testTimeout)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireVolumesMatchPlan(t, label, plan, res.World, mode.lu.Elem.Width())
					for kind := range classOf {
						var got int64
						for _, v := range plan.PerRankSent(kind) {
							got += v
						}
						if want := plan.ExpectedBytes(kind); got != want {
							t.Errorf("%s kind %v: per-rank sum %d != ExpectedBytes %d", label, kind, got, want)
						}
					}
					res.Release()
				}
			}
		}
	}
}

// TestVolumesDeterministicPerSeed verifies that the measured per-rank
// volume vector is a pure function of (plan, seed).
func TestVolumesDeterministicPerSeed(t *testing.T) {
	g := sparse.Grid2D(7, 7, 2)
	an, lu, _ := prep(t, g, etree.Options{MaxWidth: 6})
	plan := core.NewPlan(an.BP, procgrid.New(3, 4), core.ShiftedBinaryTree, 1234)
	run := func() []int64 {
		res, err := NewEngine(plan, lu).Run(testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		return res.World.VolumeVector(simmpi.ClassColBcast, true)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("volume vector differs at rank %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestShiftSeedRedistributesVolume verifies the heuristic's core effect:
// different shift seeds move the forwarding load to different ranks while
// the total stays fixed.
func TestShiftSeedRedistributesVolume(t *testing.T) {
	g := sparse.Grid2D(10, 10, 3)
	an, lu, _ := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	grid := procgrid.New(5, 5)
	var prev []int64
	var prevTotal int64
	changed := false
	for seed := uint64(1); seed <= 3; seed++ {
		plan := core.NewPlan(an.BP, grid, core.ShiftedBinaryTree, seed)
		res, err := NewEngine(plan, lu).Run(testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		vec := res.World.VolumeVector(simmpi.ClassColBcast, true)
		var total int64
		for _, v := range vec {
			total += v
		}
		if prev != nil {
			if total != prevTotal {
				t.Fatalf("total Col-Bcast volume changed with seed: %d vs %d", total, prevTotal)
			}
			for i := range vec {
				if vec[i] != prev[i] {
					changed = true
				}
			}
		}
		prev, prevTotal = vec, total
	}
	if !changed {
		t.Fatal("shift seed never changed the per-rank distribution")
	}
}
