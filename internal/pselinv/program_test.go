package pselinv

import (
	"fmt"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/netsim"
	"pselinv/internal/procgrid"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// programSends lists every inter-rank message the compiled programs send,
// read off the programs alone: broadcast forwards, cross-sends, partial sums
// up the reduction trees and, on a symmetric plan, mirror sends (a message to
// the sender itself is a hand-off, no traffic) — a broadcast and a cross-send
// once per group, at the slot of its first block. It also checks each
// program's own receive counts against the messages addressed to it,
// hand-offs included.
func programSends(t *testing.T, label string, plan *core.Plan, visit func(kind core.OpKind, src, dst int, bytes int64)) {
	t.Helper()
	progs := core.Compile(plan)
	recv := make([]int, len(progs))
	send := func(kind core.OpKind, src, dst int, bytes int64) {
		recv[dst]++
		if src != dst {
			visit(kind, src, dst, bytes)
		}
	}
	for r, p := range progs {
		first := func(cr core.CollRole) bool { return plan.BP.RowsOf[cr.Op.K][cr.ID-p.First[cr.Op.K]] == cr.Op.Blk }
		for _, ps := range p.Side {
			for _, cr := range ps.Bcasts {
				for _, c := range cr.Kids() {
					if first(cr) {
						send(cr.Op.Kind, r, c, cr.Op.Bytes)
					}
				}
			}
			for _, cr := range ps.Cross {
				if cr.Blk == cr.Op.Blk {
					send(cr.Op.Kind, r, cr.Op.Dst, cr.Op.Bytes)
				}
			}
		}
		for _, cr := range p.Reds {
			if cr.Parent >= 0 {
				send(cr.Op.Kind, r, int(cr.Parent), cr.Op.Bytes)
			}
		}
		if plan.Symmetric {
			for _, cr := range p.Side[core.Lower].Cross { // each owned block's mirror
				send(core.OpSymmSend, r, cr.Op.Dst, int64(plan.BP.Part.Width(cr.Blk)*plan.BP.Part.Width(cr.Op.K)*8))
			}
		}
	}
	for r, p := range progs {
		if p.Expect1+p.Expect2 != recv[r] {
			t.Errorf("%s rank %d: program expects %d+%d messages, %d are addressed to it", label, r, p.Expect1, p.Expect2, recv[r])
		}
	}
}

// TestProgramsAgreeWithPlanEngineAndNetsim checks, on the plan shapes the
// netsim goldens pin (symmetric and general), that the four views of one plan
// move the same traffic: per rank and op kind, the bytes and messages the
// compiled programs send and receive equal the plan's analytic vectors
// (PerRankSent, PerRankRecv, PerRankMsgs) and the engine's measured world
// counters, and netsim's message and byte totals equal the plan's.
func TestProgramsAgreeWithPlanEngineAndNetsim(t *testing.T) {
	grid2d := func() *sparse.Generated { return sparse.Grid2D(16, 16, 1) }
	dg := func() *sparse.Generated { return sparse.DG2D(16, 16, 4, 1) }
	for _, c := range []struct {
		g            func() *sparse.Generated
		opt          etree.Options
		pr, pc       int
		scheme       core.Scheme
		symmetric    bool
		ranksPerNode int
	}{
		{grid2d, etree.Options{Relax: 2, MaxWidth: 8}, 4, 4, core.ShiftedBinaryTree, true, 24},
		{grid2d, etree.Options{Relax: 2, MaxWidth: 8}, 4, 4, core.ShiftedBinaryTree, false, 24},
		{grid2d, etree.Options{Relax: 2, MaxWidth: 8}, 6, 8, core.FlatTree, true, 24},
		{grid2d, etree.Options{Relax: 2, MaxWidth: 8}, 8, 8, core.BinaryTree, false, 24},
		{dg, etree.Options{Relax: 4, MaxWidth: 48}, 4, 4, core.TopoShiftedTree, true, 4},
		{dg, etree.Options{Relax: 4, MaxWidth: 48}, 6, 6, core.TopoShiftedTree, false, 8},
	} {
		g := c.g()
		if !c.symmetric {
			g = sparse.Asymmetrize(g, 7, 0.4) // in place
		}
		label := fmt.Sprintf("%s/%dx%d/%v", g.Name, c.pr, c.pc, c.scheme)
		an, lu, ref := prep(t, g, c.opt)
		ref.Release()
		plan := core.NewPlanConfig(an.BP, procgrid.New(c.pr, c.pc), core.PlanConfig{Scheme: c.scheme, Seed: 1,
			Symmetric: c.symmetric, Topo: core.Topology{CoresPerNode: c.ranksPerNode}})
		p := plan.Grid.Size()

		type tally struct{ sent, recv []int64 }
		bytes, msgs := map[core.OpKind]tally{}, make([]int, p)
		var total, totalBytes int64
		programSends(t, label, plan, func(kind core.OpKind, src, dst int, b int64) {
			if _, ok := bytes[kind]; !ok {
				bytes[kind] = tally{make([]int64, p), make([]int64, p)}
			}
			bytes[kind].sent[src] += b
			bytes[kind].recv[dst] += b
			msgs[src]++
			msgs[dst]++
			total++
			totalBytes += b
		})

		res, err := NewEngine(plan, lu).Run(testTimeout)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		w, ew := res.World, int64(lu.Elem.Width())
		classBytes := map[simmpi.Class]tally{}
		for kind, class := range classOf {
			if _, ok := classBytes[class]; !ok {
				classBytes[class] = tally{make([]int64, p), make([]int64, p)}
			}
			sent, recv := plan.PerRankSent(kind), plan.PerRankRecv(kind)
			for r := range p {
				var ps, pr int64
				if tl, ok := bytes[kind]; ok {
					ps, pr = tl.sent[r], tl.recv[r]
				}
				if ps != sent[r] || pr != recv[r] {
					t.Errorf("%s %v rank %d: program sends %d and receives %d bytes, plan %d and %d", label, kind, r, ps, pr, sent[r], recv[r])
				}
				classBytes[class].sent[r] += ps * ew
				classBytes[class].recv[r] += pr * ew
			}
		}
		planMsgs := plan.PerRankMsgs()
		for r := range p {
			var measured int64
			for class, tl := range classBytes {
				if got := w.SentBytes(r, class); got != tl.sent[r] {
					t.Errorf("%s %v rank %d: engine sent %d bytes, program %d", label, class, r, got, tl.sent[r])
				}
				if got := w.RecvBytes(r, class); got != tl.recv[r] {
					t.Errorf("%s %v rank %d: engine received %d bytes, program %d", label, class, r, got, tl.recv[r])
				}
			}
			for _, class := range simmpi.Classes() {
				measured += w.SentMsgs(r, class) + w.RecvMsgs(r, class)
			}
			if msgs[r] != planMsgs[r] || measured != int64(msgs[r]) {
				t.Errorf("%s rank %d: program sends+receives %d messages, plan %d, engine %d", label, r, msgs[r], planMsgs[r], measured)
			}
		}
		res.Release()

		params := netsim.DefaultParams()
		params.CoresPerNode = c.ranksPerNode
		sim := netsim.SimulateDAG(netsim.BuildDAG(plan), params)
		if sim.MsgCount != total || sim.BytesMoved != totalBytes {
			t.Errorf("%s: netsim moved %d messages and %d bytes, the programs and the plan %d and %d",
				label, sim.MsgCount, sim.BytesMoved, total, totalBytes)
		}
	}
}
