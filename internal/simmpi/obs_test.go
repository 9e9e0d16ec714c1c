package simmpi

import (
	"testing"
	"time"
)

// TestSendRecvNilObserverZeroAlloc is the instrumentation overhead guard:
// with no observer installed, steady-state Send/Recv must not allocate —
// the nil-safe hook may cost a branch, never an allocation or a clock
// read. The mailbox ring is warmed first so buffer growth stays outside
// the measured region.
func TestSendRecvNilObserverZeroAlloc(t *testing.T) {
	w := NewWorld(1)
	data := []float64{1, 2, 3, 4}
	err := w.Run(30*time.Second, func(r *Rank) {
		for i := 0; i < 8; i++ {
			r.Send(0, uint64(i), ClassOther, data)
		}
		for i := 0; i < 8; i++ {
			if _, ok := r.Recv(); !ok {
				t.Error("warmup recv failed")
				return
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			r.Send(0, 1, ClassColBcast, data)
			if _, ok := r.Recv(); !ok {
				t.Error("recv failed")
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state Send/Recv with nil observer allocates %.2f/op, want 0", allocs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recordingObserver captures every hook invocation for assertion.
type recordingObserver struct {
	sends, recvs int
	lastDepth    int
	lastWaitSeen bool
	lastClass    Class
	bytes        int64
}

func (o *recordingObserver) RecordSend(src, dst int, class Class, tag uint64, bytes int64, depth int) {
	o.sends++
	o.lastDepth = depth
	o.lastClass = class
	o.bytes += bytes
}

func (o *recordingObserver) RecordRecv(src, dst int, class Class, tag uint64, bytes int64, wait time.Duration) {
	o.recvs++
	if wait > 0 {
		o.lastWaitSeen = true
	}
}

// TestObserverHook checks the hook contract: every send and receive is
// reported (self-sends included — queue depth is real either way), the
// reported depth reflects the mailbox after insertion, and a blocked
// receive reports a positive wait.
func TestObserverHook(t *testing.T) {
	w := NewWorld(2)
	rec := &recordingObserver{}
	w.SetObserver(rec)
	err := w.Run(10*time.Second, func(r *Rank) {
		if r.ID == 0 {
			r.Send(0, 1, ClassOther, []float64{1})    // self-send
			r.Send(0, 2, ClassColBcast, []float64{2}) // queue depth 2
			r.Recv()
			r.Recv()
			r.Send(1, 3, ClassColBcast, []float64{1, 2, 3})
		} else {
			if _, ok := r.Recv(); !ok { // blocks until rank 0's late send
				t.Error("recv failed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.sends != 3 {
		t.Errorf("RecordSend called %d times, want 3", rec.sends)
	}
	// The last send targets rank 1's empty mailbox: depth after insertion
	// is exactly 1 (rank 0 is the only sender to that mailbox).
	if rec.lastDepth != 1 {
		t.Errorf("last send saw queue depth %d, want 1", rec.lastDepth)
	}
	if rec.lastClass != ClassColBcast {
		t.Errorf("last send class %v, want Col-Bcast", rec.lastClass)
	}
	if rec.recvs != 3 {
		t.Errorf("RecordRecv called %d times, want 3", rec.recvs)
	}
	if !rec.lastWaitSeen {
		t.Error("blocked receive reported zero wait")
	}
	if rec.bytes != 5*8 { // 1 + 1 + 3 float64 payloads, self-sends included
		t.Errorf("observer saw %d sent bytes, want 40", rec.bytes)
	}
}
