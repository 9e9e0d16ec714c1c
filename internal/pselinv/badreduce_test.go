package pselinv

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/procgrid"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// tamperTransport is the in-process transport with a hook on each side of
// the link, so a test can corrupt one message below the World's counters.
type tamperTransport struct {
	*simmpi.InProc
	onSend func(tr *simmpi.InProc, msg simmpi.Message) // extra traffic to inject beside msg
	onRecv func(msg *simmpi.Message)
}

func (t *tamperTransport) Send(msg simmpi.Message) int {
	if t.onSend != nil {
		t.onSend(t.InProc, msg)
	}
	return t.InProc.Send(msg)
}

func (t *tamperTransport) Recv(rank int) (simmpi.Message, bool) {
	msg, ok := t.InProc.Recv(rank)
	if ok && t.onRecv != nil {
		t.onRecv(&msg)
	}
	return msg, ok
}

func (t *tamperTransport) TryRecv(rank int) (simmpi.Message, bool) {
	msg, ok := t.InProc.TryRecv(rank)
	if ok && t.onRecv != nil {
		t.onRecv(&msg)
	}
	return msg, ok
}

// edge is one message of the plan a test tampers with.
type edge struct {
	kind     core.OpKind
	k, blk   int
	src, dst int
}

func (e edge) is(msg *simmpi.Message) bool {
	return msg.Tag == core.OpKey(e.kind, e.k, e.blk) && msg.Src == e.src
}

// topEdge returns an edge of the topmost supernode with a cross-rank
// message of the ops it lists: a broadcast root to its first child, that
// child to a reduction's root, a point-to-point message from its sender. A
// message of the top supernodes leaves its receiver traffic to come, so the
// receiver cannot finish before a bad message reaches it.
func topEdge(t *testing.T, plan *core.Plan, ops func(sp *core.SupernodePlan) ([]core.CollOp, []core.PointOp)) edge {
	t.Helper()
	for k := len(plan.Snodes) - 1; k >= 0; k-- {
		colls, points := ops(plan.Snodes[k])
		for _, op := range colls {
			if tr := op.Tree; tr.Size() > 1 {
				if op.Kind == core.OpRowReduce {
					return edge{op.Kind, op.K, op.Blk, tr.Children(tr.Root)[0], tr.Root}
				}
				return edge{op.Kind, op.K, op.Blk, tr.Root, tr.Children(tr.Root)[0]}
			}
		}
		for _, op := range points {
			if op.Src != op.Dst {
				return edge{op.Kind, op.K, op.Blk, op.Src, op.Dst}
			}
		}
	}
	t.Fatal("plan has no such cross-rank message")
	return edge{}
}

// TestBadReduceMessageFailsRun injects the malformed messages a rank must
// refuse. Into the Row-Reduce of the topmost supernode: three a fold must
// refuse — a sender that is no child of the receiver, a second payload from
// one child, a payload that is not its block — and three whose tag
// names no slot at the receiver — a supernode it takes no part in, an unknown
// kind, a block not in C(K). Then a payload one word short of its blocks on a
// Col-Bcast, a packed Diag-Bcast and a SymmSend, and a second payload into a
// filled broadcast slot and into a final A⁻¹ block. Into the topmost
// Col-Bcast group of several blocks: a payload of its first block only, and
// a tag naming its second block. Each must fail the run promptly at the
// receiver with an error naming the message, in sequential and DAG mode
// alike.
func TestBadReduceMessageFailsRun(t *testing.T) {
	withPoolWorkers(t, 4)
	g := sparse.Grid2D(6, 6, 3)
	an, lu, _ := prep(t, g, etree.Options{Relax: 2, MaxWidth: 6})
	plan := core.NewPlan(an.BP, procgrid.New(2, 2), core.ShiftedBinaryTree, 1)

	red := topEdge(t, plan, func(sp *core.SupernodePlan) ([]core.CollOp, []core.PointOp) { return sp.RowReduces, nil })
	col := topEdge(t, plan, func(sp *core.SupernodePlan) ([]core.CollOp, []core.PointOp) { return sp.ColBcasts, nil })
	diag := topEdge(t, plan, func(sp *core.SupernodePlan) ([]core.CollOp, []core.PointOp) {
		if sp.DiagBcast == nil {
			return nil, nil
		}
		return []core.CollOp{*sp.DiagBcast}, nil
	})
	symm := topEdge(t, plan, func(sp *core.SupernodePlan) ([]core.CollOp, []core.PointOp) { return nil, sp.SymmSends })
	var group edge // the root's message to a child in the topmost Col-Bcast group of several blocks
	var second, firstWords int
	for k := len(plan.Snodes) - 1; k >= 0 && group.k == 0; k-- {
		for _, op := range plan.Snodes[k].ColBcasts {
			if tr := op.Tree; len(op.Blks) > 1 && tr.Size() > 1 {
				group, second = edge{op.Kind, op.K, op.Blk, tr.Root, tr.Children(tr.Root)[0]}, op.Blks[1]
				firstWords = an.BP.Part.Width(op.Blk) * an.BP.Part.Width(k)
				break
			}
		}
	}
	if group.k == 0 {
		t.Fatal("no Col-Bcast group of several blocks")
	}
	// A leaf supernode (empty C) has no collectives, so no rank has a role in it.
	foreign := slices.IndexFunc(plan.Snodes, func(sp *core.SupernodePlan) bool { return len(sp.C) == 0 })
	if foreign < 0 || red.k == 0 {
		t.Fatal("no leaf supernode, or no block below the target's")
	}
	// retag rewrites the reduce message's tag on arrival.
	retag := func(kind core.OpKind, k, blk int) func(tt *tamperTransport) {
		return func(tt *tamperTransport) {
			tt.onRecv = func(msg *simmpi.Message) {
				if red.is(msg) {
					msg.Tag = core.OpKey(kind, k, blk)
				}
			}
		}
	}
	// short drops the last word of e's payload on arrival.
	short := func(e edge) func(tt *tamperTransport) {
		return func(tt *tamperTransport) {
			tt.onRecv = func(msg *simmpi.Message) {
				if e.is(msg) {
					msg.Data = msg.Data[:len(msg.Data)-1]
				}
			}
		}
	}
	// twice delivers e's payload a second time, ahead of the first.
	twice := func(e edge) func(tt *tamperTransport) {
		return func(tt *tamperTransport) {
			tt.onSend = func(tr *simmpi.InProc, msg simmpi.Message) {
				if e.is(&msg) {
					msg.Data = append([]float64(nil), msg.Data...)
					tr.Send(msg)
				}
			}
		}
	}

	faults := []struct {
		name string
		at   edge // the message the error names, and its sender and receiver
		hook func(tt *tamperTransport)
	}{
		{"sender is not a child", edge{red.kind, red.k, red.blk, red.dst, red.dst}, func(tt *tamperTransport) {
			tt.onRecv = func(msg *simmpi.Message) {
				if red.is(msg) {
					msg.Src = red.dst // a rank is never its own child
				}
			}
		}},
		{"second payload from one child", red, twice(red)},
		{"payload is not one block", red, short(red)},
		{"foreign supernode", edge{red.kind, foreign, red.blk, red.src, red.dst}, retag(red.kind, foreign, red.blk)},
		{"unknown kind", edge{core.OpColReduce + 3, red.k, red.blk, red.src, red.dst}, retag(core.OpColReduce+3, red.k, red.blk)},
		{"block not in C(K)", edge{red.kind, red.k, red.k - 1, red.src, red.dst}, retag(red.kind, red.k, red.k-1)},
		{"Col-Bcast one word short", col, short(col)},
		{"packed Diag-Bcast one word short", diag, short(diag)},
		{"SymmSend one word short", symm, short(symm)},
		{"second Col-Bcast into one slot", col, twice(col)},
		{"second SymmSend into a final block", symm, twice(symm)},
		{"payload of one block of a group", group, func(tt *tamperTransport) {
			tt.onRecv = func(msg *simmpi.Message) {
				if group.is(msg) {
					msg.Data = msg.Data[:firstWords]
				}
			}
		}},
		{"tag names a group's second block", edge{group.kind, group.k, second, group.src, group.dst}, func(tt *tamperTransport) {
			tt.onRecv = func(msg *simmpi.Message) {
				if group.is(msg) {
					msg.Tag = core.OpKey(group.kind, group.k, second)
				}
			}
		}},
	}
	for _, f := range faults {
		for _, dag := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dag=%v", f.name, dag), func(t *testing.T) {
				eng := NewEngine(plan, lu)
				eng.DAG = dag
				tt := &tamperTransport{InProc: simmpi.NewInProc(plan.Grid.Size())}
				f.hook(tt)
				world := simmpi.NewWorldOn(tt)
				defer world.Close()
				start := time.Now()
				res, err := eng.RunWorld(world, testTimeout)
				if err == nil {
					res.Release()
					t.Fatal("the malformed message did not fail the run")
				}
				if waited := time.Since(start); waited > testTimeout/2 {
					t.Errorf("failure took %v: the run hung until its deadline", waited)
				}
				var re *messageError
				if !errors.As(err, &re) {
					t.Fatalf("error is %T (%v), want a *messageError", err, err)
				}
				want := messageError{Kind: f.at.kind, K: f.at.k, Blk: f.at.blk, Src: f.at.src, Rank: f.at.dst}
				got := *re
				got.Reason = ""
				if got != want {
					t.Fatalf("error names %+v, want %+v (%v)", got, want, err)
				}
			})
		}
	}
}
