// Package simmpi is the message-passing substrate substituting for MPI:
// a World of P ranks exchanging tagged messages via non-blocking sends
// (the MPI_Isend/MPI_Irecv discipline PSelInv is built on) over a
// pluggable Transport. The default backend runs every rank as a goroutine
// with in-process mailboxes (InProc); internal/tcptransport runs each
// rank as an OS process speaking length-prefixed frames over TCP.
//
// The package keeps per-rank, per-class byte counters so the communication
// volume experiments (Tables I/II, Figures 4–7 of the paper) measure real
// traffic generated by the real algorithm rather than a model. The
// counters, the Observer/Adversary hooks, and rank-state tracking live
// above the Transport interface, so accounting and chaos behave
// identically across backends.
package simmpi

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Class labels a message for volume accounting, mirroring the operation
// classes the paper reports (Col-Bcast sent volume, Row-Reduce received
// volume, ...).
type Class int

const (
	// ClassOther is uncategorized traffic.
	ClassOther Class = iota
	// ClassDiagBcast is the pass-1 broadcast of diagonal factor blocks.
	ClassDiagBcast
	// ClassCrossSend is the L̂_{I,K} → Û_{K,I} transpose point-to-point send.
	ClassCrossSend
	// ClassColBcast is the broadcast of Û_{K,I} within a processor column.
	ClassColBcast
	// ClassRowReduce is the reduction of A⁻¹_{J,I}·L̂_{I,K} within a
	// processor row.
	ClassRowReduce
	// ClassDiagReduce is the reduction of diagonal-update contributions
	// within a processor column.
	ClassDiagReduce
	// ClassSymmSend is the transpose send of finalized A⁻¹ blocks to their
	// upper-triangle mirrors.
	ClassSymmSend
	// ClassRowBcast is the broadcast of Û_{K,I} within a processor row
	// (asymmetric path).
	ClassRowBcast
	// ClassColReduce is the reduction of Û_{K,I}·A⁻¹_{I,J} within a
	// processor column (asymmetric path).
	ClassColReduce
	numClasses
)

// String names the class.
func (c Class) String() string {
	if c >= 0 && c < numClasses {
		return [...]string{"Other", "Diag-Bcast", "Cross-Send", "Col-Bcast", "Row-Reduce", "Diag-Reduce",
			"Symm-Send", "Row-Bcast", "Col-Reduce"}[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classes lists all accounting classes.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// Message is a tagged payload between ranks.
type Message struct {
	Src, Dst int
	Tag      uint64
	Class    Class
	// Serial numbers the message within its (Src, Dst) link, in send order.
	// It is assigned only when the world has an Adversary installed; the
	// adversary derives deterministic per-message delivery decisions from it.
	Serial uint64
	Data   []float64
}

// Bytes returns the payload size (float64 entries only, matching the MB
// figures of the paper which count matrix-block payloads).
func (m *Message) Bytes() int64 { return int64(len(m.Data)) * 8 }

// Observer receives communication-substrate events; internal/obs provides
// the collecting implementation. All methods are called on hot paths:
//
//   - RecordSend runs on the sender's goroutine right after the message is
//     enqueued; depth is the destination queue depth just after enqueue
//     (self-sends report depth but not send traffic, matching the volume
//     counters, which exclude intra-rank bytes).
//   - RecordRecv runs on the receiver's goroutine after a message is
//     delivered; wait is the time the receiver spent blocked in Recv
//     (zero for TryRecv).
//
// A nil observer keeps the substrate untouched: no clock reads, no
// allocations, no extra synchronization.
type Observer interface {
	RecordSend(src, dst int, class Class, tag uint64, bytes int64, depth int)
	RecordRecv(src, dst int, class Class, tag uint64, bytes int64, wait time.Duration)
}

// Adversary perturbs message delivery; internal/chaos provides the seeded
// implementation. A nil adversary keeps faithful per-link FIFO delivery.
type Adversary interface {
	// Pick selects which of the pending messages (index 0 is the oldest)
	// rank dst receives next. It is called with len(pending) >= 1 under the
	// destination mailbox lock, so it must not call back into the world.
	// Returning drop = true discards the chosen message instead of
	// delivering it (fault injection); the byte counters then record a
	// sent-but-never-received message, which CheckConservation reports.
	Pick(dst int, pending []Message) (idx int, drop bool)
	// Delivered runs on rank dst's goroutine after msg left the mailbox,
	// outside any lock. It may sleep (stall injection) or panic (crash
	// injection); a panic propagates as a rank panic of the Run.
	Delivered(dst int, msg *Message)
}

// RankState is the last observed execution state of a rank, maintained by
// the world so that the engine's hung-run report can say where every rank is
// stuck when a run deadlocks.
type RankState int32

const (
	// StateIdle: the rank goroutine has not started yet.
	StateIdle RankState = iota
	// StateRunning: executing the rank body.
	StateRunning
	// StateRecvWait: blocked inside Recv waiting for a message.
	StateRecvWait
	// StateBarrierWait: blocked inside Barrier.
	StateBarrierWait
	// StateDone: the rank body returned normally.
	StateDone
	// StatePanicked: the rank body panicked.
	StatePanicked
)

// String names the state.
func (s RankState) String() string {
	if s >= 0 && s <= StatePanicked {
		return [...]string{"idle", "running", "recv-wait", "barrier-wait", "done", "panicked"}[s]
	}
	return fmt.Sprintf("RankState(%d)", int32(s))
}

// World layers the MPI-like discipline over a Transport for a set of P
// ranks: per-class volume counters, link serial numbering for the chaos
// adversary, rank-state tracking, and the Observer hook. For distributed
// backends a World covers only the ranks hosted in this process
// (LocalRanks); the counters then hold this process's share of the
// traffic, to be aggregated by the launcher.
type World struct {
	P         int
	tr        Transport
	local     []int
	sentBytes []int64 // P * numClasses, atomic
	recvBytes []int64
	sentMsgs  []int64
	recvMsgs  []int64
	states    []int32 // P, atomic RankState

	// adv, when set, perturbs delivery; linkSerial numbers messages per
	// (src, dst) link so the adversary's decisions are reproducible.
	adv        Adversary
	linkSerial []int64

	// obs, when set, receives per-message telemetry (internal/obs). Every
	// hook call is guarded by a nil check so the uninstrumented path does
	// no extra work.
	obs Observer
}

// NewWorld creates a world with p ranks over the in-process transport.
func NewWorld(p int) *World { return NewWorldOn(NewInProc(p)) }

// NewWorldOn creates a world over an existing transport. The world takes
// ownership: World.Close closes the transport.
func NewWorldOn(tr Transport) *World {
	p := tr.Size()
	if p <= 0 {
		panic("simmpi: non-positive world size")
	}
	n := p * int(numClasses)
	return &World{P: p, tr: tr, local: tr.LocalRanks(), states: make([]int32, p),
		sentBytes: make([]int64, n), recvBytes: make([]int64, n), sentMsgs: make([]int64, n), recvMsgs: make([]int64, n)}
}

// Transport returns the communication substrate underneath the world.
func (w *World) Transport() Transport { return w.tr }

// LocalRanks lists the ranks hosted by this process, ascending.
func (w *World) LocalRanks() []int { return w.local }

// AllLocal reports whether every rank of the job lives in this process
// (always true for the in-process backend). Conservation can only be
// checked locally when it holds.
func (w *World) AllLocal() bool { return len(w.local) == w.P }

// SetAdversary installs (or removes, with nil) a delivery adversary. It must
// be called before Run; the same adversary instance must not be reused
// across worlds (its delivery counters are per-run state).
func (w *World) SetAdversary(a Adversary) {
	w.adv = a
	if a != nil && w.linkSerial == nil {
		w.linkSerial = make([]int64, w.P*w.P)
	}
	w.tr.SetAdversary(a)
}

// SetObserver installs (or removes, with nil) a telemetry observer. It must
// be called before Run; observer state is per-run, so the same instance
// must not be reused across worlds.
func (w *World) SetObserver(o Observer) { w.obs = o }

// Observer returns the installed telemetry observer, if any.
func (w *World) Observer() Observer { return w.obs }

func (w *World) setState(rank int, s RankState) { atomic.StoreInt32(&w.states[rank], int32(s)) }

// RankStateOf returns the last observed state of rank. It is safe to call
// concurrently with a run (the hung-run report reads it after a timeout
// while stuck goroutines are still blocked).
func (w *World) RankStateOf(rank int) RankState { return RankState(atomic.LoadInt32(&w.states[rank])) }

// PendingMessages returns a snapshot of the messages queued for dst,
// oldest-first. The returned messages share payload slices with the queue
// and must be treated as read-only. For distributed backends only local
// ranks have a queue to snapshot; other ranks report nil.
func (w *World) PendingMessages(dst int) []Message { return w.tr.Pending(dst) }

// Rank is the per-goroutine handle to the world.
type Rank struct {
	ID    int
	world *World
}

// World returns the world this rank belongs to.
func (r *Rank) World() *World { return r.world }

// Send delivers a message to dst without blocking (buffered, like an
// MPI_Isend whose buffer is owned by the runtime). Self-sends are
// delivered but not counted in communication volume: within a rank no
// bytes cross the network, matching how MPI volume is accounted in the
// paper's heat maps.
func (r *Rank) Send(dst int, tag uint64, class Class, data []float64) {
	if dst < 0 || dst >= r.world.P {
		panic(fmt.Sprintf("simmpi: send to invalid rank %d", dst))
	}
	msg := Message{Src: r.ID, Dst: dst, Tag: tag, Class: class, Data: data}
	if r.world.adv != nil {
		msg.Serial = uint64(atomic.AddInt64(&r.world.linkSerial[r.ID*r.world.P+dst], 1) - 1)
	}
	if dst != r.ID {
		idx := r.ID*int(numClasses) + int(class)
		atomic.AddInt64(&r.world.sentBytes[idx], msg.Bytes())
		atomic.AddInt64(&r.world.sentMsgs[idx], 1)
	}
	depth := r.world.tr.Send(msg)
	if r.world.obs != nil {
		r.world.obs.RecordSend(r.ID, dst, class, tag, msg.Bytes(), depth)
	}
}

// Recv blocks until any message arrives. The engine built on top performs
// its own tag dispatch (the MPI_Irecv-with-wildcard discipline).
func (r *Rank) Recv() (Message, bool) {
	obs := r.world.obs
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	r.world.setState(r.ID, StateRecvWait)
	msg, ok := r.world.tr.Recv(r.ID)
	r.world.setState(r.ID, StateRunning)
	if ok && msg.Src != r.ID {
		idx := r.ID*int(numClasses) + int(msg.Class)
		atomic.AddInt64(&r.world.recvBytes[idx], msg.Bytes())
		atomic.AddInt64(&r.world.recvMsgs[idx], 1)
	}
	if ok && obs != nil {
		obs.RecordRecv(msg.Src, r.ID, msg.Class, msg.Tag, msg.Bytes(), time.Since(t0))
	}
	return msg, ok
}

// TryRecv is the non-blocking variant of Recv.
func (r *Rank) TryRecv() (Message, bool) {
	msg, ok := r.world.tr.TryRecv(r.ID)
	if ok && msg.Src != r.ID {
		idx := r.ID*int(numClasses) + int(msg.Class)
		atomic.AddInt64(&r.world.recvBytes[idx], msg.Bytes())
		atomic.AddInt64(&r.world.recvMsgs[idx], 1)
	}
	if ok && r.world.obs != nil {
		r.world.obs.RecordRecv(msg.Src, r.ID, msg.Class, msg.Tag, msg.Bytes(), 0)
	}
	return msg, ok
}

// Barrier blocks until every rank in the world has entered it.
func (r *Rank) Barrier() {
	w := r.world
	w.setState(r.ID, StateBarrierWait)
	w.tr.Barrier(r.ID)
	w.setState(r.ID, StateRunning)
}

// RankPanic records one rank's panic, with the goroutine stack captured at
// the recover site.
type RankPanic struct {
	Rank  int
	Value any
	Stack []byte
}

// PanicError aggregates every rank panic of a run. World.Run re-raises it
// as a panic value so a single-rank panic still propagates like an
// uncaught panic (tests rely on that), while multi-rank failures are no
// longer silently collapsed to whichever panic won the race.
type PanicError struct {
	Panics []RankPanic // sorted by rank
}

// Error formats every panic with its rank and stack.
func (e *PanicError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simmpi: %d rank(s) panicked", len(e.Panics))
	for i := range e.Panics {
		p := &e.Panics[i]
		fmt.Fprintf(&b, "\n--- rank %d: %v\n%s", p.Rank, p.Value, p.Stack)
	}
	return b.String()
}

// TimeoutError reports a run that exceeded its deadline, distinguishing
// ranks that are genuinely stuck from ranks that panicked (previously a
// panicked rank was indistinguishable from a stuck one). The world is left
// with the stuck goroutines still blocked, so a harness can snapshot their
// states and pending messages before calling Close.
type TimeoutError struct {
	Timeout time.Duration
	Stuck   []int       // ranks that neither finished nor panicked
	Panics  []RankPanic // ranks that panicked before the deadline
}

// Error summarizes the stuck and panicked ranks.
func (e *TimeoutError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simmpi: timeout after %v; stuck ranks: %v", e.Timeout, e.Stuck)
	if len(e.Panics) > 0 {
		ranks := make([]int, len(e.Panics))
		for i := range e.Panics {
			ranks[i] = e.Panics[i].Rank
		}
		fmt.Fprintf(&b, "; panicked ranks: %v", ranks)
		for i := range e.Panics {
			fmt.Fprintf(&b, "\n--- rank %d: %v", e.Panics[i].Rank, e.Panics[i].Value)
		}
	}
	return b.String()
}

// Run executes body concurrently on every rank hosted in this process and
// waits for completion (with the in-process transport that is all P ranks;
// with a distributed backend, just the local ones). Rank panics are
// drained — all of them, not just the first — and re-raised on the caller
// as a *PanicError; exceeding timeout returns a *TimeoutError naming the
// stuck local ranks (the symptom of a communication deadlock) separately
// from any panicked ones. A run that finishes past its deadline is a
// timeout too, with no rank stuck.
func (w *World) Run(timeout time.Duration, body func(r *Rank)) error {
	local := w.local
	done := make(chan int, len(local))
	panics := make(chan RankPanic, len(local))
	for _, i := range local {
		go func(id int) {
			defer func() {
				if p := recover(); p != nil {
					w.setState(id, StatePanicked)
					panics <- RankPanic{Rank: id, Value: p, Stack: debug.Stack()}
				} else {
					w.setState(id, StateDone)
				}
				done <- id
			}()
			w.setState(id, StateRunning)
			body(&Rank{ID: id, world: w})
		}(i)
	}
	finished := make([]bool, w.P)
	deadline := time.Now().Add(timeout)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
wait:
	for c := 0; c < len(local); c++ {
		select {
		case id := <-done:
			finished[id] = true
		case <-timer.C:
			break wait
		}
	}
	// A run that ends past its deadline has failed it, even if every rank
	// finished: when the last done and the fired timer are both ready, the
	// select picks one at random, so only the clock decides.
	if !time.Now().Before(deadline) {
		e := &TimeoutError{Timeout: timeout, Panics: drainPanics(panics)}
		for _, id := range local {
			if !finished[id] && w.RankStateOf(id) != StatePanicked {
				e.Stuck = append(e.Stuck, id)
			}
		}
		return e
	}
	if ps := drainPanics(panics); len(ps) > 0 {
		panic(&PanicError{Panics: ps})
	}
	return nil
}

func drainPanics(ch chan RankPanic) []RankPanic {
	var ps []RankPanic
	for {
		select {
		case p := <-ch:
			ps = append(ps, p)
		default:
			sort.Slice(ps, func(i, j int) bool { return ps[i].Rank < ps[j].Rank })
			return ps
		}
	}
}

// SentBytes returns bytes sent by rank in class.
func (w *World) SentBytes(rank int, class Class) int64 { return load(w.sentBytes, rank, class) }

// RecvBytes returns bytes received by rank in class.
func (w *World) RecvBytes(rank int, class Class) int64 { return load(w.recvBytes, rank, class) }

// SentMsgs returns the message count sent by rank in class.
func (w *World) SentMsgs(rank int, class Class) int64 { return load(w.sentMsgs, rank, class) }

// RecvMsgs returns the message count received by rank in class.
func (w *World) RecvMsgs(rank int, class Class) int64 { return load(w.recvMsgs, rank, class) }

func load(ctr []int64, rank int, class Class) int64 {
	return atomic.LoadInt64(&ctr[rank*int(numClasses)+int(class)])
}

// TotalSent sums sent bytes over all classes for rank.
func (w *World) TotalSent(rank int) int64 {
	var t int64
	for c := 0; c < int(numClasses); c++ {
		t += w.SentBytes(rank, Class(c))
	}
	return t
}

// VolumeVector returns the per-rank byte counts for one class and
// direction; the statistics package turns these into the paper's tables,
// histograms and heat maps.
func (w *World) VolumeVector(class Class, sent bool) []int64 {
	ctr, out := w.recvBytes, make([]int64, w.P)
	if sent {
		ctr = w.sentBytes
	}
	for r := range out {
		out[r] = load(ctr, r, class)
	}
	return out
}

// CheckConservation verifies that, per class, total bytes sent equals total
// bytes received (self-sends excluded from both). Returns an error naming
// the first violating class. It is only meaningful when every rank is
// local (AllLocal); on a distributed backend's single-process world the
// counters hold one process's share and the launcher aggregates across
// workers before checking.
func (w *World) CheckConservation() error {
	if !w.AllLocal() {
		return fmt.Errorf("simmpi: conservation is a global property; world hosts %d of %d ranks",
			len(w.local), w.P)
	}
	for _, c := range Classes() {
		var s, r int64
		for rank := 0; rank < w.P; rank++ {
			s += w.SentBytes(rank, c)
			r += w.RecvBytes(rank, c)
		}
		if s != r {
			return fmt.Errorf("simmpi: class %v: sent %d bytes but received %d", c, s, r)
		}
	}
	return nil
}

// Close closes the transport (wakes any blocked Recv with ok=false).
func (w *World) Close() { w.tr.Close() }
