package chaos

import (
	"testing"
	"time"

	"pselinv/internal/simmpi"
)

// script replays a fixed arrival sequence through Pick/Delivered and
// returns the delivery order (by serial).
func script(a *Adversary, dst int, msgs []simmpi.Message) []uint64 {
	pending := append([]simmpi.Message(nil), msgs...)
	var order []uint64
	for len(pending) > 0 {
		idx, drop := a.Pick(dst, pending)
		msg := pending[idx]
		pending = append(pending[:idx], pending[idx+1:]...)
		if drop {
			continue
		}
		a.Delivered(dst, &msg)
		order = append(order, msg.Serial)
	}
	return order
}

func linkMsgs(src, dst, n int) []simmpi.Message {
	msgs := make([]simmpi.Message, n)
	for i := range msgs {
		msgs[i] = simmpi.Message{Src: src, Dst: dst, Serial: uint64(i)}
	}
	return msgs
}

func TestPickDeterministicPerSeed(t *testing.T) {
	msgs := linkMsgs(0, 1, 50)
	a1 := New(Config{Seed: 7}, 2)
	a2 := New(Config{Seed: 7}, 2)
	o1 := script(a1, 1, msgs)
	o2 := script(a2, 1, msgs)
	if len(o1) != 50 {
		t.Fatalf("delivered %d of 50", len(o1))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, o1[i], o2[i])
		}
	}
}

func TestPickReordersButDeliversAll(t *testing.T) {
	msgs := linkMsgs(0, 1, 64)
	reordered := false
	for seed := uint64(1); seed <= 4; seed++ {
		order := script(New(Config{Seed: seed}, 2), 1, msgs)
		if len(order) != len(msgs) {
			t.Fatalf("seed %d: delivered %d of %d", seed, len(order), len(msgs))
		}
		seen := map[uint64]bool{}
		for i, s := range order {
			if seen[s] {
				t.Fatalf("seed %d: serial %d delivered twice", seed, s)
			}
			seen[s] = true
			if uint64(i) != s {
				reordered = true
			}
		}
	}
	if !reordered {
		t.Fatal("no seed reordered anything: adversary is a no-op")
	}
}

func TestPickRespectsWindow(t *testing.T) {
	// With window w, serial s may be delivered at the earliest once it is
	// within w of the FIFO head, i.e. delivery position >= s - (w-1).
	const w = 4
	order := script(New(Config{Seed: 3, ReorderWindow: w}, 2), 1, linkMsgs(0, 1, 100))
	for pos, s := range order {
		if int(s)-pos >= w {
			t.Fatalf("serial %d delivered at position %d: outside window %d", s, pos, w)
		}
	}
}

func TestMaxHoldBoundsStarvation(t *testing.T) {
	// Feed the queue incrementally so there is always a fresh message the
	// adversary could prefer; the head must still get through within
	// MaxHold bypasses.
	a := New(Config{Seed: 9, MaxHold: 5}, 2)
	pending := linkMsgs(0, 1, 2)
	next := uint64(2)
	holds := 0
	for i := 0; i < 1000; i++ {
		idx, _ := a.Pick(1, pending)
		if idx == 0 {
			holds = 0
		} else {
			holds++
			if holds > 5 {
				t.Fatalf("head bypassed %d consecutive times with MaxHold=5", holds)
			}
		}
		msg := pending[idx]
		pending = append(pending[:idx], pending[idx+1:]...)
		a.Delivered(1, &msg)
		// keep two candidates pending
		pending = append(pending, simmpi.Message{Src: 0, Dst: 1, Serial: next})
		next++
	}
}

func TestDropFailsConservation(t *testing.T) {
	w := simmpi.NewWorld(2)
	Install(Config{
		Seed: 1,
		Drop: func(m *simmpi.Message) bool { return m.Tag == 99 },
	}, w)
	err := w.Run(5*time.Second, func(r *simmpi.Rank) {
		if r.ID == 0 {
			r.Send(1, 99, simmpi.ClassColBcast, []float64{1, 2, 3})
			r.Send(1, 1, simmpi.ClassOther, []float64{4})
		} else {
			if msg, ok := r.Recv(); !ok || msg.Tag != 1 {
				t.Errorf("rank 1 got %+v ok=%v, want the undropped tag 1", msg, ok)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cErr := w.CheckConservation(); cErr == nil {
		t.Fatal("dropped message not reported by CheckConservation")
	}
}

func TestDuplicateDeliveryDetected(t *testing.T) {
	a := New(Config{Seed: 1}, 2)
	msg := simmpi.Message{Src: 0, Dst: 1, Serial: 5}
	a.Delivered(1, &msg)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate delivery not detected")
		}
	}()
	a.Delivered(1, &msg)
}

func TestCrashInjection(t *testing.T) {
	w := simmpi.NewWorld(2)
	Install(Config{Seed: 1, CrashRank: 1, CrashAfter: 3}, w)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected the injected crash to propagate")
		}
		pe, ok := p.(*simmpi.PanicError)
		if !ok || len(pe.Panics) != 1 {
			t.Fatalf("panic value %v (%T), want one-rank *PanicError", p, p)
		}
		if _, ok := pe.Panics[0].Value.(*Crash); !ok {
			t.Fatalf("rank 1 panicked with %v, want *chaos.Crash", pe.Panics[0].Value)
		}
	}()
	_ = w.Run(5*time.Second, func(r *simmpi.Rank) {
		if r.ID == 0 {
			for i := 0; i < 5; i++ {
				r.Send(1, uint64(i), simmpi.ClassOther, []float64{1})
			}
		} else {
			for i := 0; i < 5; i++ {
				r.Recv()
			}
		}
	})
}

func TestStallInjection(t *testing.T) {
	w := simmpi.NewWorld(2)
	Install(Config{Seed: 1, StallRank: 1, StallEvery: 1, StallDelay: 30 * time.Millisecond}, w)
	start := time.Now()
	err := w.Run(5*time.Second, func(r *simmpi.Rank) {
		if r.ID == 0 {
			for i := 0; i < 3; i++ {
				r.Send(1, uint64(i), simmpi.ClassOther, []float64{1})
			}
		} else {
			for i := 0; i < 3; i++ {
				r.Recv()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 90*time.Millisecond {
		t.Fatalf("run took %v, want >= 90ms from 3 stalls of 30ms", d)
	}
}
