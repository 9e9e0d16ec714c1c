// The message table: the one place a receive is paired with its send. The
// engine sends at most one message per (tag, src, dst), so that triple names
// a message; Merge pairs the two ends by ring position once, and the clock
// repair, the chain analysis and the critical-path walk all read the pairs.
package obs

import (
	"cmp"
	"fmt"
	"slices"

	"pselinv/internal/simmpi"
)

// msg is one message of a merged run. sendPos and recvPos are the ring
// positions of its two events on the src and dst snapshots (-1 for an end
// the ring did not retain); sendIdx is the 1-based order of the send among
// src's sends of the tag, arrIdx that of the receive among dst's receives of
// the tag (0 for a missing end).
type msg struct {
	src, dst         int32
	sendPos, recvPos int32
	sendIdx, arrIdx  int32
}

func (m *msg) matched() bool { return m.sendPos >= 0 && m.recvPos >= 0 }

// coll is one tag's messages: one collective or point operation.
type coll struct {
	tag   uint64
	class simmpi.Class
	msgs  []msg
}

// msgTable holds a merged run's messages sorted by (tag, src, dst), grouped
// by tag, and, per rank and ring position, the position of a receive's send
// on the sender's ring (-1 for sends and for receives whose send was not
// retained).
type msgTable struct {
	msgs   []msg
	colls  []coll
	sendOf [][]int32
}

// end is one retained event keyed for the sorts that build the table. pos
// is its ring position on the owning rank — src for a send, dst for a
// receive — and idx its order among the owner's events of the same tag and
// direction.
type end struct {
	tag      uint64
	src, dst int32
	pos, idx int32
	dir      Dir
	class    simmpi.Class
}

func (e *end) owner() int32 {
	if e.dir == DirSend {
		return e.src
	}
	return e.dst
}

// matchMessages builds the message table of validated snapshots (ranks
// 0..P-1 in order). Snapshots are untrusted, so an event the engine cannot
// record is an error naming its rank and tag: a peer outside [0, P) or equal
// to the rank, a direction other than send or receive, or a second send or
// receive of one (tag, src, dst).
func matchMessages(byRank []*Snapshot) (*msgTable, error) {
	p := len(byRank)
	n := 0
	for _, s := range byRank {
		n += len(s.Events)
	}
	t := &msgTable{sendOf: make([][]int32, p)}
	ends := make([]end, 0, n)
	for r, s := range byRank {
		t.sendOf[r] = make([]int32, len(s.Events))
		for i, e := range s.Events {
			t.sendOf[r][i] = -1
			if e.Peer < 0 || int(e.Peer) >= p || int(e.Peer) == r {
				return nil, fmt.Errorf("obs: merge: rank %d event %d (tag %#x): peer %d outside [0,%d) or the rank itself", r, i, e.Tag, e.Peer, p)
			}
			en := end{tag: e.Tag, src: int32(r), dst: e.Peer, pos: int32(i), dir: e.Dir, class: e.Class}
			switch e.Dir {
			case DirSend:
			case DirRecv:
				en.src, en.dst = e.Peer, int32(r)
			default:
				return nil, fmt.Errorf("obs: merge: rank %d event %d (tag %#x): direction %d is neither send nor receive", r, i, e.Tag, e.Dir)
			}
			ends = append(ends, en)
		}
	}

	// In (tag, owner, direction, position) order each owner's sends of a tag,
	// then its receives, run in program order: number them.
	slices.SortFunc(ends, func(a, b end) int {
		return cmp.Or(cmp.Compare(a.tag, b.tag), cmp.Compare(a.owner(), b.owner()),
			cmp.Compare(a.dir, b.dir), cmp.Compare(a.pos, b.pos))
	})
	for i := range ends {
		a := &ends[i]
		a.idx = 1
		if i > 0 {
			if b := &ends[i-1]; a.tag == b.tag && a.owner() == b.owner() && a.dir == b.dir {
				a.idx = b.idx + 1
			}
		}
	}

	// In (tag, src, dst, direction) order a message's send sits right before
	// its receive, and a repeated end right after its twin.
	slices.SortFunc(ends, func(a, b end) int {
		return cmp.Or(cmp.Compare(a.tag, b.tag), cmp.Compare(a.src, b.src),
			cmp.Compare(a.dst, b.dst), cmp.Compare(a.dir, b.dir))
	})
	sameMsg := func(a, b *end) bool { return a.tag == b.tag && a.src == b.src && a.dst == b.dst }
	for i := 1; i < len(ends); i++ {
		if e := &ends[i]; sameMsg(e, &ends[i-1]) && e.dir == ends[i-1].dir {
			what, peer := "send to", e.dst
			if e.dir == DirRecv {
				what, peer = "receive from", e.src
			}
			return nil, fmt.Errorf("obs: merge: rank %d records a second %s %d of tag %#x", e.owner(), what, peer, e.tag)
		}
	}
	t.msgs = make([]msg, 0, n)
	lo := 0 // the current tag's first message
	for i := 0; i < len(ends); i++ {
		e := &ends[i]
		if i == 0 || e.tag != ends[i-1].tag {
			lo = len(t.msgs)
			t.colls = append(t.colls, coll{tag: e.tag, class: e.class})
		}
		m := msg{src: e.src, dst: e.dst, sendPos: -1, recvPos: -1}
		if e.dir == DirSend {
			m.sendPos, m.sendIdx = e.pos, e.idx
			if i+1 < len(ends) && sameMsg(e, &ends[i+1]) {
				i++
				e = &ends[i]
			}
		}
		if e.dir == DirRecv {
			m.recvPos, m.arrIdx = e.pos, e.idx
		}
		if m.matched() {
			t.sendOf[m.dst][m.recvPos] = m.sendPos
		}
		t.msgs = append(t.msgs, m)
		t.colls[len(t.colls)-1].msgs = t.msgs[lo:]
	}
	return t, nil
}

// slack is the feasibility bound of one ordered rank pair for the clock
// offset relaxation: the minimum raw recv − send difference over the pair's
// matched messages.
type slack struct {
	src, dst int32
	ns       int64
}

// slacks returns one bound per communicating rank pair, sorted by (src, dst),
// read off the snapshots' (uncorrected) event times.
func (t *msgTable) slacks(byRank []*Snapshot) []slack {
	var out []slack
	for _, m := range t.msgs {
		if m.matched() {
			d := byRank[m.dst].Events[m.recvPos].T - byRank[m.src].Events[m.sendPos].T
			out = append(out, slack{m.src, m.dst, int64(d)})
		}
	}
	slices.SortFunc(out, func(a, b slack) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.ns, b.ns))
	})
	return slices.CompactFunc(out, func(a, b slack) bool { return a.src == b.src && a.dst == b.dst })
}

// clamp enforces non-negative latency on every matched message of the
// (already offset-shifted) snapshots by lifting a late receive's timestamp
// to its send's, returning the clamp count and the final minimum latency
// (>= 0 whenever at least one message matched, else 0).
func (t *msgTable) clamp(byRank []*Snapshot) (clamped int, minEdge int64) {
	first := true
	for _, m := range t.msgs {
		if !m.matched() {
			continue
		}
		sendT, recv := byRank[m.src].Events[m.sendPos].T, &byRank[m.dst].Events[m.recvPos]
		if recv.T < sendT {
			recv.T = sendT
			clamped++
		}
		if lat := int64(recv.T - sendT); first || lat < minEdge {
			minEdge, first = lat, false
		}
	}
	return clamped, minEdge
}
