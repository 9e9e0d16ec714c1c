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

// TestBadReduceMessageFailsRun injects the malformed messages a rank must
// refuse into the Row-Reduce of the topmost supernode (so the receiver still
// has traffic to come and cannot finish before the bad message reaches it):
// three a fold must refuse — a sender that is no child of the receiver, a
// second payload from one child, a payload that is not one block — and three
// whose tag names no slot at the receiver — a supernode it takes no part in,
// an unknown kind, a block not in C(K). Each must fail the run promptly with
// an error naming the message, in sequential and DAG mode alike.
func TestBadReduceMessageFailsRun(t *testing.T) {
	withPoolWorkers(t, 4)
	g := sparse.Grid2D(6, 6, 3)
	an, lu, _ := prep(t, g, etree.Options{Relax: 2, MaxWidth: 6})
	plan := core.NewPlan(an.BP, procgrid.New(2, 2), core.ShiftedBinaryTree, 1)

	// The target edge: child src → parent dst of one Row-Reduce tree.
	var op *core.CollOp
	src, dst := -1, -1
	for k := len(plan.Snodes) - 1; k >= 0 && op == nil; k-- {
		sp := plan.Snodes[k]
		for x := range sp.RowReduces {
			if tr := sp.RowReduces[x].Tree; tr.Size() > 1 {
				op = &sp.RowReduces[x]
				dst = tr.Root
				src = tr.Children(dst)[0]
				break
			}
		}
	}
	if op == nil {
		t.Fatal("plan has no cross-rank Row-Reduce")
	}
	isTarget := func(msg *simmpi.Message) bool { return msg.Tag == core.OpKey(op.Kind, op.K, op.Blk) && msg.Src == src }
	// A leaf supernode (empty C) has no collectives, so no rank has a role in it.
	foreign := slices.IndexFunc(plan.Snodes, func(sp *core.SupernodePlan) bool { return len(sp.C) == 0 })
	if foreign < 0 || op.K == 0 {
		t.Fatal("no leaf supernode, or no block below the target's")
	}
	// retag rewrites the target message's tag on arrival.
	retag := func(kind core.OpKind, k, blk int) func(tt *tamperTransport) {
		return func(tt *tamperTransport) {
			tt.onRecv = func(msg *simmpi.Message) {
				if isTarget(msg) {
					msg.Tag = core.OpKey(kind, k, blk)
				}
			}
		}
	}

	faults := []struct {
		name    string
		wantSrc int
		hook    func(tt *tamperTransport)
		tag     *messageError // the (kind, K, blk) the error names, when not the target's
	}{
		{"sender is not a child", dst, func(tt *tamperTransport) {
			tt.onRecv = func(msg *simmpi.Message) {
				if isTarget(msg) {
					msg.Src = dst // a rank is never its own child
				}
			}
		}, nil},
		{"second payload from one child", src, func(tt *tamperTransport) {
			tt.onSend = func(tr *simmpi.InProc, msg simmpi.Message) {
				if isTarget(&msg) {
					msg.Data = append([]float64(nil), msg.Data...)
					tr.Send(msg)
				}
			}
		}, nil},
		{"payload is not one block", src, func(tt *tamperTransport) {
			tt.onRecv = func(msg *simmpi.Message) {
				if isTarget(msg) {
					msg.Data = msg.Data[:len(msg.Data)-1]
				}
			}
		}, nil},
		{"foreign supernode", src, retag(op.Kind, foreign, op.Blk),
			&messageError{Kind: op.Kind, K: foreign, Blk: op.Blk}},
		{"unknown kind", src, retag(core.OpColReduce+3, op.K, op.Blk),
			&messageError{Kind: core.OpColReduce + 3, K: op.K, Blk: op.Blk}},
		{"block not in C(K)", src, retag(op.Kind, op.K, op.K-1),
			&messageError{Kind: op.Kind, K: op.K, Blk: op.K - 1}},
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
					t.Fatal("the malformed reduce message did not fail the run")
				}
				if waited := time.Since(start); waited > testTimeout/2 {
					t.Errorf("failure took %v: the run hung until its deadline", waited)
				}
				var re *messageError
				if !errors.As(err, &re) {
					t.Fatalf("error is %T (%v), want a *messageError", err, err)
				}
				want := messageError{Kind: op.Kind, K: op.K, Blk: op.Blk, Src: f.wantSrc, Rank: dst}
				if f.tag != nil {
					want.Kind, want.K, want.Blk = f.tag.Kind, f.tag.K, f.tag.Blk
				}
				got := *re
				got.Reason = ""
				if got != want {
					t.Fatalf("error names %+v, want %+v (%v)", got, want, err)
				}
			})
		}
	}
}
