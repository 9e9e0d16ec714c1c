package pselinv

import (
	"errors"
	"fmt"
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

// TestBadReduceMessageFailsRun injects the three malformed reduce messages
// a fold must refuse — a sender that is no child of the receiver, a second
// payload from one child, a payload that is not one block — into the
// Row-Reduce of the topmost supernode (so the receiver still has traffic
// to come and cannot finish before the bad message reaches it). Each must
// fail the run promptly with an error naming the collective, in sequential
// and DAG mode alike.
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
	isTarget := func(msg *simmpi.Message) bool { return msg.Tag == op.Key() && msg.Src == src }

	faults := []struct {
		name    string
		wantSrc int
		hook    func(tt *tamperTransport)
	}{
		{"sender is not a child", dst, func(tt *tamperTransport) {
			tt.onRecv = func(msg *simmpi.Message) {
				if isTarget(msg) {
					msg.Src = dst // a rank is never its own child
				}
			}
		}},
		{"second payload from one child", src, func(tt *tamperTransport) {
			tt.onSend = func(tr *simmpi.InProc, msg simmpi.Message) {
				if isTarget(&msg) {
					msg.Data = append([]float64(nil), msg.Data...)
					tr.Send(msg)
				}
			}
		}},
		{"payload is not one block", src, func(tt *tamperTransport) {
			tt.onRecv = func(msg *simmpi.Message) {
				if isTarget(msg) {
					msg.Data = msg.Data[:len(msg.Data)-1]
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
					t.Fatal("the malformed reduce message did not fail the run")
				}
				if waited := time.Since(start); waited > testTimeout/2 {
					t.Errorf("failure took %v: the run hung until its deadline", waited)
				}
				var re *reduceError
				if !errors.As(err, &re) {
					t.Fatalf("error is %T (%v), want a *reduceError", err, err)
				}
				want := reduceError{Kind: op.Kind, K: op.K, Blk: op.Blk, Src: f.wantSrc, Rank: dst}
				got := *re
				got.Reason = ""
				if got != want {
					t.Fatalf("error names %+v, want %+v (%v)", got, want, err)
				}
			})
		}
	}
}
