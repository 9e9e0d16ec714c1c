package pselinv

// Fault injection through the delivery adversary: a crashed rank and a lost
// broadcast forward must each fail the run with a report that says where,
// never a wrong result. (Delivery order itself is FuzzPipeline's.)

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pselinv/internal/chaos"
	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/procgrid"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// faultEngine builds the engine the fault tests run: a Grid2D on a grid.
func faultEngine(t *testing.T, nx int, seed int64, grid *procgrid.Grid) *Engine {
	t.Helper()
	an, lu, ref := prep(t, sparse.Grid2D(nx, nx, seed), etree.Options{Relax: 2, MaxWidth: 6})
	ref.Release()
	return NewEngine(core.NewPlan(an.BP, grid, core.ShiftedBinaryTree, 1), lu)
}

// TestChaosCrashProducesDeadlockReport injects a rank crash and checks the
// hung-run report the timeout carries: the crash is identified as injected,
// the surviving ranks are named stuck, and in-flight collective messages
// carry the receiver's position in their tree.
func TestChaosCrashProducesDeadlockReport(t *testing.T) {
	eng := faultEngine(t, 6, 3, procgrid.New(2, 2))
	world := simmpi.NewWorld(4)
	defer world.Close()
	chaos.Install(chaos.Config{Seed: 5, CrashRank: 2, CrashAfter: 2}, world)
	_, err := eng.RunWorld(world, 500*time.Millisecond)
	var te *simmpi.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T (%v), want a *simmpi.TimeoutError", err, err)
	}
	foundCrash := false
	for _, p := range te.Panics {
		if c, ok := p.Value.(*chaos.Crash); ok && c.Rank == 2 {
			foundCrash = true
		}
	}
	if !foundCrash {
		t.Fatalf("timeout error does not identify the injected crash: %v", te)
	}
	if len(te.Stuck) == 0 {
		t.Fatal("no stuck ranks; the crash should strand peers")
	}
	s := err.Error()
	for _, want := range []string{"deadlock report", "stuck", "rank states:", "rank 2 panicked",
		"injected crash of rank 2", "pending messages", "tree: parent="} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

// TestChaosDroppedForwardIsCaught is the permanent form of the mutation
// check: losing a single broadcast forward must be caught by the harness —
// the run deadlocks instead of silently producing a wrong result, and byte
// conservation pinpoints the loss.
func TestChaosDroppedForwardIsCaught(t *testing.T) {
	eng := faultEngine(t, 8, 2, procgrid.New(4, 4))
	var dropped int32
	world := simmpi.NewWorld(16)
	defer world.Close()
	chaos.Install(chaos.Config{
		Seed: 9,
		Drop: func(m *simmpi.Message) bool {
			if m.Src == m.Dst {
				return false
			}
			if kind, _, _ := core.DecodeOpKey(m.Tag); kind != core.OpColBcast {
				return false
			}
			return atomic.CompareAndSwapInt32(&dropped, 0, 1)
		},
	}, world)
	_, err := eng.RunWorld(world, 500*time.Millisecond)
	if atomic.LoadInt32(&dropped) == 0 {
		t.Skip("no cross-rank Col-Bcast message eligible to drop on this configuration")
	}
	var te *simmpi.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("losing a broadcast forward: error is %T (%v), want a timeout", err, err)
	}
	if cerr := world.CheckConservation(); cerr == nil {
		t.Fatal("conservation check did not flag the dropped message")
	}
	if len(te.Stuck) == 0 {
		t.Fatalf("expected stuck ranks in the report:\n%v", err)
	}
}

// TestHungRunReport builds the report of a hand-made hang on the engine's
// world: one rank blocked in Recv, one Col-Bcast forward its child never
// takes. The report names the stuck rank and its state, and places the
// in-flight message in its tree through the receiver's program.
func TestHungRunReport(t *testing.T) {
	eng := faultEngine(t, 6, 3, procgrid.New(2, 2))
	var op *core.CollOp
	for k := len(eng.Plan.Snodes) - 1; k >= 0 && op == nil; k-- {
		for x := range eng.Plan.Snodes[k].ColBcasts {
			if tr := eng.Plan.Snodes[k].ColBcasts[x].Tree; tr.Size() > 1 {
				op = &eng.Plan.Snodes[k].ColBcasts[x]
				break
			}
		}
	}
	if op == nil {
		t.Fatal("plan has no cross-rank Col-Bcast")
	}
	parent := op.Tree.Root
	child := op.Tree.Children(parent)[0]
	world := simmpi.NewWorld(4)
	defer world.Close()
	err := world.Run(150*time.Millisecond, func(r *simmpi.Rank) {
		if r.ID == parent {
			r.Send(child, core.OpKey(op.Kind, op.K, op.Blk), simmpi.ClassColBcast, []float64{1, 2})
			r.Recv()
		}
	})
	te, ok := err.(*simmpi.TimeoutError)
	if !ok {
		t.Fatalf("error is %T (%v), want a *simmpi.TimeoutError", err, err)
	}
	rep := eng.postMortem(world, te)
	if len(rep.stuck) != 1 || rep.stuck[0] != parent || rep.states[parent] != simmpi.StateRecvWait {
		t.Fatalf("stuck %v (rank %d %v), want rank %d in recv-wait", rep.stuck, parent, rep.states[parent], parent)
	}
	if len(rep.pending) != 1 || rep.pending[0].role == nil || rep.pending[0].role.Parent != int32(parent) {
		t.Fatalf("pending %+v, want the one Col-Bcast forward placed below rank %d", rep.pending, parent)
	}
	s := rep.String()
	for _, want := range []string{"1 stuck", "recv-wait", "Col-Bcast",
		fmt.Sprintf("ColBcast(K=%d,blk=%d)", op.K, op.Blk), fmt.Sprintf("tree: parent=%d", parent)} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestCondense(t *testing.T) {
	got := condense([]int{0, 1, 2, 3, 7, 9, 10, 11, 12, 14})
	if got != "[0-3 7 9-12 14]" {
		t.Fatalf("condense: %s", got)
	}
}
