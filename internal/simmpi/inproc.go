package simmpi

import "sync"

// InProc is the in-process transport: every rank is a goroutine in this
// process and messages move between in-memory Inboxes. It is the default
// backend (NewWorld wraps it) and the reference for every behavioral
// guarantee the rest of the stack pins — per-link FIFO, zero-alloc
// steady-state send/recv, and deterministic adversary perturbation.
type InProc struct {
	p       int
	inboxes []*Inbox
	local   []int

	barrierMu   sync.Mutex
	barrierCond *sync.Cond
	barrierCnt  int
	barrierGen  int
	closed      bool // under barrierMu: Close released the barrier for good
}

var _ Transport = (*InProc)(nil)

// NewInProc creates an in-process transport with p ranks.
func NewInProc(p int) *InProc {
	if p <= 0 {
		panic("simmpi: non-positive world size")
	}
	t := &InProc{
		p:       p,
		inboxes: make([]*Inbox, p),
		local:   make([]int, p),
	}
	for i := range t.inboxes {
		t.inboxes[i] = NewInbox(i)
		t.local[i] = i
	}
	t.barrierCond = sync.NewCond(&t.barrierMu)
	return t
}

// Size returns the number of ranks.
func (t *InProc) Size() int { return t.p }

// LocalRanks returns every rank: all of them live in this process.
func (t *InProc) LocalRanks() []int { return t.local }

// Send enqueues msg on the destination inbox and returns its depth just
// after the insert.
func (t *InProc) Send(msg Message) int { return t.inboxes[msg.Dst].Push(msg) }

// Recv blocks until a message for rank arrives or the transport closes.
func (t *InProc) Recv(rank int) (Message, bool) { return t.inboxes[rank].Pop() }

// TryRecv is the non-blocking variant of Recv.
func (t *InProc) TryRecv(rank int) (Message, bool) { return t.inboxes[rank].TryPop() }

// Pending snapshots rank's queue, oldest-first.
func (t *InProc) Pending(rank int) []Message { return t.inboxes[rank].Pending() }

// AdoptRing hands rank's inbox an empty ring buffer to fill before it grows
// one of its own: the ring ReclaimRing took from an earlier world's inbox.
// Call it before any rank can send.
func (t *InProc) AdoptRing(rank int, ring []Message) {
	in := t.inboxes[rank]
	in.mu.Lock()
	in.buf, in.head = ring, 0
	in.mu.Unlock()
}

// ReclaimRing takes rank's ring buffer out of its inbox when every message has
// been delivered — each delivery cleared its slot — and returns nil while any
// is pending. The inbox is left without a ring: it no longer shares one with
// the world that adopts it next.
func (t *InProc) ReclaimRing(rank int) []Message {
	in := t.inboxes[rank]
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.count != 0 {
		return nil
	}
	ring := in.buf
	in.buf, in.head = nil, 0
	return ring
}

// SetAdversary installs a delivery adversary on every inbox.
func (t *InProc) SetAdversary(a Adversary) {
	for _, in := range t.inboxes {
		in.SetAdversary(a)
	}
}

// Barrier blocks until every rank has entered it or the transport closes
// (generation-counted condition variable; the rank argument is unused
// in-process).
func (t *InProc) Barrier(int) {
	t.barrierMu.Lock()
	gen := t.barrierGen
	t.barrierCnt++
	if t.barrierCnt == t.p {
		t.barrierCnt = 0
		t.barrierGen++
		t.barrierMu.Unlock()
		t.barrierCond.Broadcast()
		return
	}
	for gen == t.barrierGen && !t.closed {
		t.barrierCond.Wait()
	}
	t.barrierMu.Unlock()
}

// Close closes all inboxes (wakes any blocked Recv with ok = false) and
// releases any rank blocked in Barrier.
func (t *InProc) Close() {
	for _, in := range t.inboxes {
		in.Close()
	}
	t.barrierMu.Lock()
	t.closed = true
	t.barrierMu.Unlock()
	t.barrierCond.Broadcast()
}
