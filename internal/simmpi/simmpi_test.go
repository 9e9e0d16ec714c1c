package simmpi

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestPingPong(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(5*time.Second, func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 42, ClassOther, []float64{1, 2, 3})
			msg, ok := r.Recv()
			if !ok || msg.Tag != 43 || msg.Src != 1 {
				t.Errorf("rank 0 got %+v ok=%v", msg, ok)
			}
		} else {
			msg, ok := r.Recv()
			if !ok || msg.Tag != 42 || len(msg.Data) != 3 {
				t.Errorf("rank 1 got %+v ok=%v", msg, ok)
			}
			r.Send(0, 43, ClassOther, []float64{9})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.SentBytes(0, ClassOther) != 24 {
		t.Fatalf("rank 0 sent %d bytes, want 24", w.SentBytes(0, ClassOther))
	}
	if w.RecvBytes(0, ClassOther) != 8 {
		t.Fatalf("rank 0 received %d bytes, want 8", w.RecvBytes(0, ClassOther))
	}
	if err := w.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfSendNotCounted(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(5*time.Second, func(r *Rank) {
		r.Send(0, 7, ClassColBcast, []float64{1, 2})
		msg, ok := r.Recv()
		if !ok || msg.Tag != 7 {
			t.Errorf("self message lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.SentBytes(0, ClassColBcast) != 0 || w.RecvBytes(0, ClassColBcast) != 0 {
		t.Fatal("self-send counted in volume")
	}
}

func TestManyToOneOrderPreservedPerSender(t *testing.T) {
	const n = 64
	w := NewWorld(2)
	err := w.Run(10*time.Second, func(r *Rank) {
		if r.ID == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, uint64(i), ClassOther, []float64{float64(i)})
			}
		} else {
			last := -1
			for i := 0; i < n; i++ {
				msg, ok := r.Recv()
				if !ok {
					t.Error("mailbox closed early")
					return
				}
				if int(msg.Tag) <= last {
					t.Errorf("FIFO violated: %d after %d", msg.Tag, last)
				}
				last = int(msg.Tag)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecv(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(5*time.Second, func(r *Rank) {
		if r.ID == 0 {
			if _, ok := r.TryRecv(); ok {
				t.Error("TryRecv returned a phantom message")
			}
			r.Send(1, 1, ClassOther, nil)
		} else {
			for {
				if msg, ok := r.TryRecv(); ok {
					if msg.Tag != 1 {
						t.Errorf("wrong tag %d", msg.Tag)
					}
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	const p = 8
	w := NewWorld(p)
	var phase int32
	err := w.Run(10*time.Second, func(r *Rank) {
		atomic.AddInt32(&phase, 1)
		r.Barrier()
		if got := atomic.LoadInt32(&phase); got != p {
			t.Errorf("rank %d passed barrier with phase %d", r.ID, got)
		}
		r.Barrier()
		atomic.AddInt32(&phase, 1)
		r.Barrier()
		if got := atomic.LoadInt32(&phase); got != 2*p {
			t.Errorf("rank %d: second phase %d", r.ID, got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCloseReleasesBarrier: a rank that fails a run closes the world, and
// peers already waiting in Barrier must come out of it then, not at the
// deadline.
func TestCloseReleasesBarrier(t *testing.T) {
	w := NewWorld(3)
	start := time.Now()
	err := w.Run(10*time.Second, func(r *Rank) {
		if r.ID == 0 {
			w.Close() // rank 0 never enters the barrier
			return
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("ranks left the barrier after %v", d)
	}
}

func TestRunTimeout(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(100*time.Millisecond, func(r *Rank) {
		if r.ID == 0 {
			r.Recv() // blocks forever: nobody sends
		}
	})
	if err == nil {
		t.Fatal("expected timeout error")
	}
	w.Close() // release the stuck goroutine
}

// TestRunPastDeadlineIsTimeout: a run cannot end inside a 1 ns deadline, so
// it is a timeout however the ranks' dones and the fired timer race. Ranks
// that finished before the first select used to succeed whenever the
// select took every done ahead of the timer.
func TestRunPastDeadlineIsTimeout(t *testing.T) {
	for i := 0; i < 200; i++ {
		w := NewWorld(4)
		err := w.Run(time.Nanosecond, func(r *Rank) {})
		if _, ok := err.(*TimeoutError); !ok {
			t.Fatalf("run %d: error is %T (%v), want *TimeoutError", i, err, err)
		}
		w.Close()
	}
}

func TestRunPanicPropagates(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	_ = w.Run(5*time.Second, func(r *Rank) {
		if r.ID == 1 {
			panic("boom")
		}
	})
}

func TestRunDrainsAllPanics(t *testing.T) {
	w := NewWorld(4)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic to propagate")
		}
		pe, ok := p.(*PanicError)
		if !ok {
			t.Fatalf("panic value is %T, want *PanicError", p)
		}
		if len(pe.Panics) != 3 {
			t.Fatalf("got %d panics, want 3: %v", len(pe.Panics), pe)
		}
		for i, rp := range pe.Panics {
			wantRank := i + 1 // sorted by rank; rank 0 finishes cleanly
			if rp.Rank != wantRank {
				t.Errorf("panic %d from rank %d, want %d", i, rp.Rank, wantRank)
			}
			if len(rp.Stack) == 0 {
				t.Errorf("panic from rank %d has no stack", rp.Rank)
			}
			if w.RankStateOf(rp.Rank) != StatePanicked {
				t.Errorf("rank %d state %v, want panicked", rp.Rank, w.RankStateOf(rp.Rank))
			}
		}
		if w.RankStateOf(0) != StateDone {
			t.Errorf("rank 0 state %v, want done", w.RankStateOf(0))
		}
	}()
	_ = w.Run(5*time.Second, func(r *Rank) {
		if r.ID != 0 {
			panic(r.ID)
		}
	})
}

func TestRunTimeoutSeparatesStuckFromPanicked(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(200*time.Millisecond, func(r *Rank) {
		switch r.ID {
		case 0:
			r.Recv() // blocks forever: nobody sends to rank 0
		case 1:
			panic("early crash")
		}
	})
	te, ok := err.(*TimeoutError)
	if !ok {
		t.Fatalf("error is %T (%v), want *TimeoutError", err, err)
	}
	if len(te.Stuck) != 1 || te.Stuck[0] != 0 {
		t.Errorf("stuck ranks %v, want [0]", te.Stuck)
	}
	if len(te.Panics) != 1 || te.Panics[0].Rank != 1 {
		t.Errorf("panicked ranks %+v, want rank 1", te.Panics)
	}
	if w.RankStateOf(0) != StateRecvWait {
		t.Errorf("rank 0 state %v, want recv-wait", w.RankStateOf(0))
	}
	w.Close() // release the stuck goroutine
}

func TestPendingMessagesSnapshot(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(5*time.Second, func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 11, ClassColBcast, []float64{1})
			r.Send(1, 12, ClassRowReduce, []float64{2, 3})
		}
		// Rank 1 never receives, so both messages stay queued.
	})
	if err != nil {
		t.Fatal(err)
	}
	pend := w.PendingMessages(1)
	if len(pend) != 2 || pend[0].Tag != 11 || pend[1].Tag != 12 {
		t.Fatalf("pending snapshot %+v", pend)
	}
	if w.PendingMessages(0) != nil && len(w.PendingMessages(0)) != 0 {
		t.Fatalf("rank 0 should have no pending messages")
	}
}

func TestRunConservedHelper(t *testing.T) {
	w := NewWorld(2)
	RunConserved(t, w, 5*time.Second, func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, ClassOther, []float64{1, 2})
		} else {
			r.Recv()
		}
	})

	// A lost message must trip the helper.
	var failed bool
	ftb := &fakeTB{onFatal: func() { failed = true }}
	w2 := NewWorld(2)
	RunConserved(ftb, w2, 5*time.Second, func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, ClassOther, []float64{1, 2})
		}
		// rank 1 never receives: sent bytes with no matching recv
	})
	if !failed {
		t.Fatal("RunConserved did not report the conservation violation")
	}
}

type fakeTB struct{ onFatal func() }

func (f *fakeTB) Helper()               {}
func (f *fakeTB) Fatalf(string, ...any) { f.onFatal() }

func TestVolumeVector(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(5*time.Second, func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, ClassRowReduce, make([]float64, 4))
			r.Send(2, 2, ClassRowReduce, make([]float64, 2))
		} else {
			if _, ok := r.Recv(); !ok {
				t.Error("recv failed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := w.VolumeVector(ClassRowReduce, true)
	if sent[0] != 48 || sent[1] != 0 || sent[2] != 0 {
		t.Fatalf("sent vector %v", sent)
	}
	recv := w.VolumeVector(ClassRowReduce, false)
	if recv[1] != 32 || recv[2] != 16 {
		t.Fatalf("recv vector %v", recv)
	}
}

func TestClassStrings(t *testing.T) {
	for _, c := range Classes() {
		if c.String() == "" {
			t.Fatalf("class %d has empty name", int(c))
		}
	}
}

// TestRingHandOff: ReclaimRings puts a drained inbox's ring on the free list,
// every slot cleared (it pins no payload), and leaves the inbox without it; an
// inbox with a message pending keeps its ring, and one past the list's cap
// is dropped. The next world of the same size starts each rank's inbox on the
// ring that rank gave back and fills it before growing one of its own.
func TestRingHandOff(t *testing.T) {
	if n := len(IdleRings()); n > 0 {
		NewInProc(n) // takes every ring on the list
	}
	tr := NewInProc(3)
	for i := 0; i < 40; i++ {
		tr.Send(Message{Src: 0, Dst: 1, Data: []float64{float64(i)}})
		tr.Send(Message{Src: 0, Dst: 2, Data: []float64{float64(i)}})
	}
	for i := 0; i < 40; i++ {
		tr.Recv(1)
	}
	for i := 0; i < 39; i++ {
		tr.Recv(2)
	}
	r1, r2 := tr.inboxes[1].buf, tr.inboxes[2].buf
	tr.ReclaimRings()
	if idle := IdleRings(); len(idle) != 1 || idle[0] != &r1[0] {
		t.Fatalf("%d rings on the list, want rank 1's alone (rank 0 received nothing, rank 2 has a message pending)", len(idle))
	}
	if tr.inboxes[1].buf != nil || &tr.inboxes[2].buf[0] != &r2[0] {
		t.Fatal("rank 1 kept the ring it gave up, or rank 2 lost the one it holds")
	}
	tr.Recv(2)
	rings.Lock()
	rings.slots += maxRingSlots
	rings.Unlock()
	tr.ReclaimRings()
	rings.Lock()
	rings.slots -= maxRingSlots
	rings.Unlock()
	if len(IdleRings()) != 1 {
		t.Fatal("a ring past the list's cap went on it")
	}
	tr.ReclaimRings()
	if idle := IdleRings(); len(idle) != 2 || idle[1] != &r2[0] {
		t.Fatalf("%d rings on the list after rank 2 drained, want ranks 1 and 2's", len(idle))
	}
	for _, ring := range [][]Message{r1, r2} {
		if len(ring) < 40 {
			t.Fatalf("reclaimed a ring of %d slots after 40 queued messages", len(ring))
		}
		for i := range ring {
			if ring[i].Data != nil {
				t.Fatalf("slot %d still holds a payload", i)
			}
		}
	}

	next := NewInProc(3)
	if len(IdleRings()) != 0 || next.inboxes[0].buf != nil {
		t.Fatal("the next world left a ring on the list, or gave rank 0 one")
	}
	for i := 0; i < 40; i++ {
		next.Send(Message{Src: 0, Dst: 1})
		next.Send(Message{Src: 0, Dst: 2})
	}
	if &next.inboxes[1].buf[0] != &r1[0] || &next.inboxes[2].buf[0] != &r2[0] {
		t.Fatal("the next world's inboxes did not fill the rings their ranks gave back")
	}
}
