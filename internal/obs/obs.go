// Package obs is the observability layer and the one record of an observed
// run: a simmpi.Observer that records per-link traffic matrices, per-rank
// ring-buffered event streams, mailbox queue-depth high-watermarks and
// blocked-receive wait durations, the per-rank span timeline the engine
// appends to it, plus a post-run analyzer that replays the event graph into
// measured per-collective critical paths and imbalance scores. Every report
// is assembled the same way — one Snapshot per rank, Merge, Merged.Report —
// whether the ranks shared a process or not.
//
// The paper's central claim is observational — a flat broadcast tree
// serializes p-1 sends at the root while a binary tree bounds the chain by
// 2·⌈log₂ p⌉ — and this package measures that chain from the actual
// message stream instead of deriving it from the plan, so tree-selection
// regressions show up as data rather than as an argument.
package obs

import (
	"sync/atomic"
	"time"

	"pselinv/internal/simmpi"
)

// numClasses mirrors simmpi's class count; the collector sizes its
// per-class link rows from it.
var numClasses = len(simmpi.Classes())

// Dir is the direction of a recorded event relative to the owning rank.
type Dir uint8

const (
	// DirSend is a message leaving the rank.
	DirSend Dir = iota
	// DirRecv is a message delivered to the rank.
	DirRecv
)

// Event is one communication event on a rank's ring, in the rank's program
// order (the ring index is the per-rank sequence number). The JSON tags are
// the snapshot wire format (see Snapshot); they are deliberately short —
// a worker ships its whole ring of these per run.
type Event struct {
	T     time.Duration `json:"t"`           // since collector creation
	Wait  time.Duration `json:"w,omitempty"` // blocked wait; zero for TryRecv
	Tag   uint64        `json:"g"`
	Bytes int64         `json:"b"`
	Peer  int32         `json:"p"` // dst for sends, src for recvs
	Class simmpi.Class  `json:"c"`
	Dir   Dir           `json:"d"`
}

// rankObs is the per-rank slice of the collector. The matrix rows, ring,
// spans and wait statistics are written only by the owning rank's goroutine
// (sends touch the source rank, receives the destination rank), so they
// need no locks; the queue-depth high-watermark is written by arbitrary
// sender goroutines and is atomic.
type rankObs struct {
	// sentB[class][dst] / recvB[class][src] are byte counts; sentN/recvN
	// the message counts. Rows are allocated on first use by the owning
	// goroutine, so idle classes cost nothing.
	sentB, recvB [][]int64
	sentN, recvN [][]int64

	ring    []Event
	ringCap int   // ring capacity; the ring is allocated on the first event
	ringLen int64 // total events appended, including overwritten ones

	spans []Span // the rank's timeline, in append order (see Collector.Span)

	waitTotal time.Duration
	waitMax   time.Duration
	waitCount int64

	hwm atomic.Int64 // mailbox queue-depth high-watermark
}

// MaxRingCap bounds a rank's event ring, so one oversized plan cannot pin
// unbounded memory per rank; past it the oldest events are overwritten.
const MaxRingCap = 1 << 20

// Collector implements simmpi.Observer and holds the span timelines. Create
// one per run and hand it to the engine (Engine.Obs) before the run; the
// run's result then carries one Snapshot per local rank. The collector must
// not be shared across worlds.
type Collector struct {
	start time.Time
	p     int
	// coresPerNode, when positive, is the rank→node packing used to
	// annotate chains with cross-node hop counts (see SetTopology).
	coresPerNode int
	ranks        []rankObs
}

// SetTopology declares the rank→node placement of the run (consecutive
// packing, coresPerNode ranks per node). Once set, the report's chain
// analysis counts cross-node hops per collective and adds the
// nodes-1 analytic reference next to the flat/log ones. Leaving it unset
// (or non-positive) keeps reports byte-identical to topology-free runs.
func (c *Collector) SetTopology(coresPerNode int) { c.coresPerNode = max(coresPerNode, 0) }

// NewCollector returns a collector for a len(ringCaps)-rank world. Rank r's
// event ring holds ringCaps[r] events (clamped to [1, MaxRingCap]); callers
// pass the plan's per-rank message counts (core.Plan.PerRankMsgs), which is
// exactly what a run records. Should a rank's stream still exceed its ring,
// the oldest events are overwritten and the report marks its chain analysis
// incomplete while the traffic matrices (plain counters, not ring-bound)
// stay exact. start is the clock epoch of the event and span timestamps: a
// distributed worker passes one shared epoch to its collector and the
// transport clock sync so every local timestamp lives on the same process
// clock and the launcher-side merge can shift whole processes by a single
// estimated offset.
func NewCollector(ringCaps []int, start time.Time) *Collector {
	if len(ringCaps) == 0 {
		panic("obs: empty world")
	}
	c := &Collector{start: start, p: len(ringCaps), ranks: make([]rankObs, len(ringCaps))}
	for r, n := range ringCaps {
		c.ranks[r].ringCap = min(max(n, 1), MaxRingCap)
	}
	return c
}

func (ro *rankObs) row(rows *[][]int64, class simmpi.Class, p int) []int64 {
	if *rows == nil {
		*rows = make([][]int64, numClasses)
	}
	r := (*rows)[class]
	if r == nil {
		r = make([]int64, p)
		(*rows)[class] = r
	}
	return r
}

func (ro *rankObs) appendEvent(e Event) {
	if ro.ring == nil {
		ro.ring = make([]Event, 0, ro.ringCap)
	}
	if len(ro.ring) < ro.ringCap {
		ro.ring = append(ro.ring, e)
	} else {
		ro.ring[ro.ringLen%int64(ro.ringCap)] = e
	}
	ro.ringLen++
}

// events returns the retained events oldest-first.
func (ro *rankObs) events() []Event {
	if ro.ringLen <= int64(len(ro.ring)) {
		return ro.ring
	}
	// The ring wrapped: linearize from the oldest retained slot.
	out := make([]Event, len(ro.ring))
	head := int(ro.ringLen % int64(len(ro.ring)))
	n := copy(out, ro.ring[head:])
	copy(out[n:], ro.ring[:head])
	return out
}

// RecordSend implements simmpi.Observer: it charges the (src → dst) link
// in the class matrix and appends a send event to src's ring. Self-sends
// update only the destination queue-depth watermark, matching the volume
// counters which exclude intra-rank bytes.
func (c *Collector) RecordSend(src, dst int, class simmpi.Class, tag uint64, bytes int64, depth int) {
	d := &c.ranks[dst]
	for {
		old := d.hwm.Load()
		if int64(depth) <= old || d.hwm.CompareAndSwap(old, int64(depth)) {
			break
		}
	}
	if src == dst {
		return
	}
	s := &c.ranks[src]
	s.row(&s.sentB, class, c.p)[dst] += bytes
	s.row(&s.sentN, class, c.p)[dst]++
	s.appendEvent(Event{
		T: time.Since(c.start), Tag: tag, Bytes: bytes,
		Peer: int32(dst), Class: class, Dir: DirSend,
	})
}

// RecordRecv implements simmpi.Observer: it charges the receive side of
// the (src → dst) link, accumulates the blocked-receive wait, and appends
// a recv event to dst's ring. Wait time is counted even for self-delivered
// messages (the block was real); the link matrices skip them.
func (c *Collector) RecordRecv(src, dst int, class simmpi.Class, tag uint64, bytes int64, wait time.Duration) {
	d := &c.ranks[dst]
	d.waitTotal += wait
	if wait > d.waitMax {
		d.waitMax = wait
	}
	d.waitCount++
	if src == dst {
		return
	}
	d.row(&d.recvB, class, c.p)[src] += bytes
	d.row(&d.recvN, class, c.p)[src]++
	d.appendEvent(Event{
		T: time.Since(c.start), Wait: wait, Tag: tag, Bytes: bytes,
		Peer: int32(src), Class: class, Dir: DirRecv,
	})
}

var _ simmpi.Observer = (*Collector)(nil)
