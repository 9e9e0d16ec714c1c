package simmpi

import (
	"slices"
	"sync"
)

// Inbox is an FIFO of messages backed by a growable ring buffer:
// steady-state push/pop traffic reuses the same slots instead of appending
// to (and abandoning prefixes of) a slice, so a long run's message churn
// stops feeding the garbage collector. It is the per-rank delivery queue
// shared by every transport backend — the TCP backend pushes decoded
// frames into the same structure — so adversary-perturbed delivery
// behaves identically across backends. It is unbounded: Push never blocks
// (the MPI_Isend discipline).
type Inbox struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	buf      []Message
	head     int // index of the oldest message
	count    int
	closed   bool

	// dst is the owning rank; adv, when non-nil, chooses which pending
	// message each pop delivers (set via SetAdversary before traffic).
	dst     int
	adv     Adversary
	scratch []Message // reusable FIFO-order view handed to adv.Pick
}

// NewInbox creates the delivery queue for rank dst.
func NewInbox(dst int) *Inbox {
	in := &Inbox{dst: dst}
	in.notEmpty = sync.NewCond(&in.mu)
	return in
}

// SetAdversary installs (or removes, with nil) the delivery adversary.
func (in *Inbox) SetAdversary(a Adversary) {
	in.mu.Lock()
	in.adv = a
	in.mu.Unlock()
}

// pushLocked appends msg, growing (and linearizing) the ring when full.
func (in *Inbox) pushLocked(msg Message) {
	if in.count == len(in.buf) {
		grown := make([]Message, max(2*len(in.buf), 16))
		for i := 0; i < in.count; i++ {
			grown[i] = in.buf[(in.head+i)%len(in.buf)]
		}
		in.buf = grown
		in.head = 0
	}
	in.buf[(in.head+in.count)%len(in.buf)] = msg
	in.count++
}

// Push enqueues msg and returns the queue depth just after the insert (the
// observer's queue-depth high-watermark input; callers without an observer
// ignore it).
func (in *Inbox) Push(msg Message) int {
	in.mu.Lock()
	in.pushLocked(msg)
	depth := in.count
	in.mu.Unlock()
	in.notEmpty.Signal()
	return depth
}

// popAtLocked removes the message at FIFO position i, shifting the older
// prefix toward the tail so the relative order of the rest is preserved, and
// clears the freed slot so the ring does not pin the payload past delivery.
func (in *Inbox) popAtLocked(i int) Message {
	n := len(in.buf)
	msg := in.buf[(in.head+i)%n]
	for j := i; j > 0; j-- {
		in.buf[(in.head+j)%n] = in.buf[(in.head+j-1)%n]
	}
	in.buf[in.head] = Message{}
	in.head = (in.head + 1) % n
	in.count--
	return msg
}

// pendingLocked returns the queued messages oldest-first in a reusable
// scratch slice (valid only until the lock is released).
func (in *Inbox) pendingLocked() []Message {
	if cap(in.scratch) < in.count {
		in.scratch = make([]Message, in.count)
	}
	s := in.scratch[:in.count]
	for i := range s {
		s[i] = in.buf[(in.head+i)%len(in.buf)]
	}
	return s
}

// Pop blocks until a message arrives or the box is closed. With an
// adversary installed, the adversary picks which pending message is
// delivered (and may drop it entirely).
func (in *Inbox) Pop() (Message, bool) { return in.pop(true) }

// TryPop is the non-blocking variant of Pop.
func (in *Inbox) TryPop() (Message, bool) { return in.pop(false) }

func (in *Inbox) pop(wait bool) (Message, bool) {
	in.mu.Lock()
	for {
		for wait && in.count == 0 && !in.closed {
			in.notEmpty.Wait()
		}
		if in.count == 0 {
			in.mu.Unlock()
			return Message{}, false
		}
		adv, idx, drop := in.adv, 0, false
		if adv != nil {
			idx, drop = adv.Pick(in.dst, in.pendingLocked())
		}
		msg := in.popAtLocked(idx)
		if drop {
			continue
		}
		in.mu.Unlock()
		if adv != nil {
			m := msg // only an adversary's delivery takes the message's address
			adv.Delivered(in.dst, &m)
			return m, true
		}
		return msg, true
	}
}

// Pending returns a snapshot of the queued messages, oldest-first. The
// returned messages share payload slices with the queue and must be
// treated as read-only.
func (in *Inbox) Pending() []Message {
	in.mu.Lock()
	defer in.mu.Unlock()
	return slices.Clone(in.pendingLocked())
}

// Close wakes any blocked Pop (ok = false).
// Already-queued messages remain deliverable.
func (in *Inbox) Close() {
	in.mu.Lock()
	in.closed = true
	in.mu.Unlock()
	in.notEmpty.Broadcast()
}
