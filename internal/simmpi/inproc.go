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

// rings is the process-wide free list of the inbox ring buffers ReclaimRings
// hands back, which NewInProc's inboxes start on instead of growing their own:
// a stack, so a world the size of the last one reclaimed takes its rings rank
// for rank. Mutex-guarded, not a sync.Pool, which a collection empties; a ring
// that would take it past maxRingSlots is dropped.
var rings struct {
	sync.Mutex
	free  [][]Message
	slots int // the rings' total length
}

const maxRingSlots = 1 << 19 // 32 MiB of 64-byte messages; a cold P = 16 run on Grid2D 96² hands back 23,552

// NewInProc creates an in-process transport with p ranks, its inboxes on
// rings from the free list while it has any.
func NewInProc(p int) *InProc {
	if p <= 0 {
		panic("simmpi: non-positive world size")
	}
	t := &InProc{
		p:       p,
		inboxes: make([]*Inbox, p),
		local:   make([]int, p),
	}
	rings.Lock()
	for i := p - 1; i >= 0; i-- { // the top ring to the highest rank: see rings
		in, n := NewInbox(i), len(rings.free)
		if n > 0 {
			in.buf, rings.free[n-1], rings.free = rings.free[n-1], nil, rings.free[:n-1]
			rings.slots -= len(in.buf)
		}
		t.inboxes[i], t.local[i] = in, i
	}
	rings.Unlock()
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

// ReclaimRings puts the ring buffer of every drained inbox on the free list
// (rings), for the next NewInProc to start its inboxes on; an inbox with a
// message pending keeps its ring. Call it only once no rank can use the
// transport again: a ring on the list may be in another world's inbox at once.
func (t *InProc) ReclaimRings() {
	rings.Lock()
	defer rings.Unlock()
	for _, in := range t.inboxes {
		in.mu.Lock()
		if n := len(in.buf); in.count == 0 && n > 0 && rings.slots+n <= maxRingSlots {
			rings.free, rings.slots = append(rings.free, in.buf), rings.slots+n
			in.buf, in.head = nil, 0
		}
		in.mu.Unlock()
	}
}

// IdleRings returns the first slot of each ring on the free list, the most
// recently reclaimed last: which rings went back, for checks of the list.
func IdleRings() []*Message {
	rings.Lock()
	defer rings.Unlock()
	out := make([]*Message, len(rings.free))
	for x, ring := range rings.free {
		out[x] = &ring[0]
	}
	return out
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
