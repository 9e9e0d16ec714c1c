package pselinv

import (
	"fmt"
	"testing"
	"time"

	"pselinv/internal/chaos"
	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/obs"
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

// volumeModes returns the real and complex × symmetric and general modes
// over one analysis of symmetric values (on which either plan is valid).
func volumeModes(t *testing.T, an *etree.Analysis, lu *factor.LU) []volumeMode {
	t.Helper()
	zlu, err := factor.FactorizeShifted(an.A, complex(0.5, 1.5), an.BP)
	if err != nil {
		t.Fatal(err)
	}
	return []volumeMode{
		{"real-symmetric", true, lu},
		{"real-general", false, lu},
		{"complex-symmetric", true, zlu},
		{"complex-general", false, zlu},
	}
}

// TestMeasuredVolumesMatchPlanExactly cross-validates the executed traffic
// against the analytic plan — the premise cmd/commvol's tables rest on, which
// read the plan and run nothing. Two families of inputs: every engine mode
// ({sequential, DAG} × {real, complex} × {symmetric, general}) on several
// grids under the paper's three schemes, and every plan knob the tables
// accept (core.AllSchemes × core.AllBalancers × rank→node packing ×
// {symmetric, general}) on two grids; then one run under the chaos
// adversary, which reorders deliveries but may neither add nor remove a byte.
func TestMeasuredVolumesMatchPlanExactly(t *testing.T) {
	withPoolWorkers(t, 4)
	g := sparse.Grid2D(9, 8, 6)
	an, lu, _ := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	modes := volumeModes(t, an, lu)

	type volumeCase struct {
		mode  volumeMode
		dims  [2]int
		cfg   core.PlanConfig // Symmetric comes from mode
		dag   bool
		chaos *chaos.Config
	}
	var cases []volumeCase
	for _, mode := range modes {
		for _, dims := range [][2]int{{1, 1}, {2, 3}, {4, 4}, {5, 3}} {
			for _, scheme := range core.Schemes() {
				for _, dag := range []bool{false, true} {
					cases = append(cases, volumeCase{mode: mode, dims: dims, dag: dag,
						cfg: core.PlanConfig{Scheme: scheme, Seed: 9}})
				}
			}
		}
	}
	for _, mode := range modes[:2] { // real-symmetric, real-general
		for _, dims := range [][2]int{{2, 3}, {4, 4}} {
			for _, scheme := range core.AllSchemes() {
				for _, bal := range core.AllBalancers() {
					for _, cpn := range []int{0, 4} {
						cases = append(cases, volumeCase{mode: mode, dims: dims,
							cfg: core.PlanConfig{Scheme: scheme, Seed: 9, Balancer: bal,
								Topo: core.Topology{CoresPerNode: cpn}}})
					}
				}
			}
		}
	}
	cases = append(cases, volumeCase{mode: modes[0], dims: [2]int{3, 3},
		cfg:   core.PlanConfig{Scheme: core.ShiftedBinaryTree, Seed: 1},
		chaos: &chaos.Config{Seed: 13}})

	for _, c := range cases {
		grid := procgrid.New(c.dims[0], c.dims[1])
		c.cfg.Symmetric = c.mode.symmetric
		label := fmt.Sprintf("%s grid %v scheme %v balancer %v cores/node %d dag=%v chaos=%v",
			c.mode.name, grid, c.cfg.Scheme, c.cfg.Balancer, c.cfg.Topo.CoresPerNode, c.dag, c.chaos != nil)
		plan := core.NewPlanConfig(an.BP, grid, c.cfg)
		eng := NewEngine(plan, c.mode.lu)
		eng.DAG = c.dag
		res, err := runUnder(eng, c.chaos)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireVolumesMatchPlan(t, label, plan, res.World, c.mode.lu.Elem.Width())
		for kind := range classOf {
			var got int64
			for _, v := range plan.PerRankSent(kind) {
				got += v
			}
			if want := expectedBytes(plan, kind); got != want {
				t.Errorf("%s kind %v: per-rank sum %d != expectedBytes %d", label, kind, got, want)
			}
		}
		res.Release()
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

// observedReport runs plan once with a collector whose rings hold ringCaps
// events per rank and returns the run's world, the run's report and the
// report's schedule-stripped JSON.
func observedReport(t *testing.T, label string, plan *core.Plan, lu *factor.LU, ringCaps []int) (*simmpi.World, *obs.Report, string) {
	t.Helper()
	eng := NewEngine(plan, lu)
	eng.Obs = obs.NewCollector(ringCaps, time.Now())
	res, err := eng.Run(testTimeout)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	res.Release()
	m, err := obs.Merge(res.Snapshots)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rep := m.Report(plan.Scheme.String())
	rep.StripSchedule()
	js, err := rep.JSON()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res.World, rep, string(js)
}

// TestPlanMessageCountsSizeObsRing pins the derivation the observed runs
// size their event rings by: on every rank the plan's message count is
// exactly what the world measures (sent + received, all classes), an
// observed run with plan-sized rings retains exactly that many events and
// analyzes complete chains, and its report is byte-identical to one taken
// with rings at the MaxRingCap bound (compared once per matrix, grid and
// path, on the shifted tree). An undersized ring still degrades
// the way ring overflow always has: drops counted, chains marked incomplete.
func TestPlanMessageCountsSizeObsRing(t *testing.T) {
	for _, g := range []*sparse.Generated{
		sparse.Banded(20, 2, 1),
		sparse.Grid3D(3, 3, 3, 2),
		sparse.RandomSym(40, 4, 3),
		sparse.DG2D(3, 3, 3, 4),
	} {
		_, lu, _ := prep(t, g, etree.Options{Relax: 1, MaxWidth: 8})
		for _, dims := range [][2]int{{2, 2}, {4, 4}} {
			grid := procgrid.New(dims[0], dims[1])
			for _, scheme := range []core.Scheme{core.FlatTree, core.BinaryTree, core.ShiftedBinaryTree} {
				for _, symmetric := range []bool{true, false} {
					label := fmt.Sprintf("%s grid %v scheme %v symmetric=%v", g.Name, grid, scheme, symmetric)
					plan := core.NewPlanConfig(lu.BP, grid, core.PlanConfig{Scheme: scheme, Seed: 9, Symmetric: symmetric})
					msgs := plan.PerRankMsgs()

					w, rep, sized := observedReport(t, label, plan, lu, msgs)
					for r, want := range msgs {
						var got int64
						for _, c := range simmpi.Classes() {
							got += w.SentMsgs(r, c) + w.RecvMsgs(r, c)
						}
						if got != int64(want) {
							t.Errorf("%s rank %d: world moved %d messages, plan counts %d", label, r, got, want)
						}
						if rr := rep.Ranks[r]; rr.Events != int64(want) || rr.Dropped != 0 {
							t.Errorf("%s rank %d: ring saw %d events and dropped %d, want %d and 0", label, r, rr.Events, rr.Dropped, want)
						}
					}
					if !rep.ChainsOK {
						t.Errorf("%s: chain analysis incomplete with plan-sized rings", label)
					}

					if scheme != core.ShiftedBinaryTree {
						continue
					}
					bound := make([]int, len(msgs))
					for r := range bound {
						bound[r] = obs.MaxRingCap
					}
					if _, _, full := observedReport(t, label, plan, lu, bound); full != sized {
						t.Errorf("%s: report with plan-sized rings differs from the MaxRingCap one:\n--- sized ---\n%s\n--- bound ---\n%s", label, sized, full)
					}
				}
			}
		}
	}

	_, lu, _ := prep(t, sparse.Grid2D(7, 7, 2), etree.Options{MaxWidth: 6})
	plan := core.NewPlan(lu.BP, procgrid.New(2, 2), core.FlatTree, 1)
	_, rep, _ := observedReport(t, "undersized", plan, lu, make([]int, 4))
	if rep.ChainsOK || rep.DroppedEvents == 0 {
		t.Errorf("one-event rings: chains complete=%v with %d drops, want incomplete chains and counted drops", rep.ChainsOK, rep.DroppedEvents)
	}
}

// expectedBytes is the total the plan moves between distinct ranks for one
// operation kind, counted from the trees' sizes rather than their edges:
// every tree edge carries one payload; point ops count unless source and
// destination coincide.
func expectedBytes(p *core.Plan, kind core.OpKind) int64 {
	var total int64
	for _, sp := range p.Snodes {
		sp.EachOp(func(op *core.CollOp) {
			if op.Kind == kind {
				total += int64(op.Tree.Size()-1) * op.Bytes
			}
		}, func(op *core.PointOp) {
			if op.Kind == kind && op.Src != op.Dst {
				total += op.Bytes
			}
		})
	}
	return total
}
