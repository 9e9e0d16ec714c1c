package simmpi

import (
	"sync"
	"testing"
	"time"
)

// chanTransport is a minimal third-party Transport used to prove the World
// layer is backend-agnostic: counters, observer hooks, and rank states
// must behave identically over a transport simmpi knows nothing about.
type chanTransport struct {
	p      int
	local  []int
	boxes  []*Inbox
	closed sync.Once
}

func newChanTransport(p int) *chanTransport {
	t := &chanTransport{p: p}
	for i := 0; i < p; i++ {
		t.local = append(t.local, i)
		t.boxes = append(t.boxes, NewInbox(i))
	}
	return t
}

func (t *chanTransport) Size() int                        { return t.p }
func (t *chanTransport) LocalRanks() []int                { return t.local }
func (t *chanTransport) Send(msg Message) int             { return t.boxes[msg.Dst].Push(msg) }
func (t *chanTransport) Recv(rank int) (Message, bool)    { return t.boxes[rank].Pop() }
func (t *chanTransport) TryRecv(rank int) (Message, bool) { return t.boxes[rank].TryPop() }
func (t *chanTransport) Pending(rank int) []Message       { return t.boxes[rank].Pending() }
func (t *chanTransport) SetAdversary(a Adversary) {
	for _, b := range t.boxes {
		b.SetAdversary(a)
	}
}
func (t *chanTransport) Barrier(int) {} // single-phase test traffic only
func (t *chanTransport) Close() {
	t.closed.Do(func() {
		for _, b := range t.boxes {
			b.Close()
		}
	})
}

// TestWorldOverCustomTransport runs the counter/conservation discipline
// over a backend defined outside the package.
func TestWorldOverCustomTransport(t *testing.T) {
	w := NewWorldOn(newChanTransport(3))
	if !w.AllLocal() {
		t.Fatal("all ranks are local")
	}
	err := w.Run(10*time.Second, func(r *Rank) {
		next := (r.ID + 1) % 3
		r.Send(next, 7, ClassColBcast, []float64{1, 2})
		if msg, ok := r.Recv(); !ok || msg.Class != ClassColBcast {
			t.Errorf("rank %d: bad recv (%v, %v)", r.ID, msg, ok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CheckConservation(); err != nil {
		t.Error(err)
	}
	for rank := 0; rank < 3; rank++ {
		if got := w.SentBytes(rank, ClassColBcast); got != 16 {
			t.Errorf("rank %d sent %d bytes, want 16", rank, got)
		}
	}
	w.Close()
}
