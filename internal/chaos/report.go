package chaos

import (
	"fmt"
	"sort"
	"strings"

	"pselinv/internal/core"
	"pselinv/internal/simmpi"
)

// InFlight is one undelivered message, annotated with the communication
// operation its tag decodes to and (when a plan is available) the stuck
// receiver's position in that operation's tree.
type InFlight struct {
	Src, Dst int
	Class    simmpi.Class
	Kind     core.OpKind
	K, Blk   int
	Serial   uint64
	Bytes    int64
	// Tree position of Dst in the op's collective tree; empty for
	// point-to-point ops or when no plan was supplied.
	TreeParent   int
	TreeChildren []int
	InTree       bool
}

// Report is the structured post-mortem of a timed-out run: where every
// rank was blocked, what was still in flight, and who panicked.
type Report struct {
	P      int
	States []simmpi.RankState
	Stuck  []int
	Panics []simmpi.RankPanic
	// Pending lists undelivered messages grouped by destination,
	// destinations ascending, FIFO order within one destination.
	Pending []InFlight
}

// Snapshot captures the deadlock state of w after err (typically the
// *simmpi.TimeoutError from World.Run; any err is tolerated). plan may be
// nil; with a plan, each in-flight collective message is annotated with the
// receiver's position in the operation's tree. Call before w.Close — Close
// releases the blocked goroutines the snapshot is about.
func Snapshot(w *simmpi.World, plan *core.Plan, err error) *Report {
	rep := &Report{P: w.P, States: make([]simmpi.RankState, w.P)}
	for r := 0; r < w.P; r++ {
		rep.States[r] = w.RankStateOf(r)
	}
	if te, ok := err.(*simmpi.TimeoutError); ok {
		rep.Stuck = append(rep.Stuck, te.Stuck...)
		rep.Panics = append(rep.Panics, te.Panics...)
	} else {
		for r := 0; r < w.P; r++ {
			switch rep.States[r] {
			case simmpi.StateRecvWait, simmpi.StateBarrierWait, simmpi.StateRunning:
				rep.Stuck = append(rep.Stuck, r)
			}
		}
	}
	for dst := 0; dst < w.P; dst++ {
		for _, msg := range w.PendingMessages(dst) {
			kind, k, blk := core.DecodeOpKey(msg.Tag)
			inf := InFlight{
				Src: msg.Src, Dst: dst, Class: msg.Class,
				Kind: kind, K: k, Blk: blk,
				Serial: msg.Serial, Bytes: msg.Bytes(),
				TreeParent: -1,
			}
			if tr := opTree(plan, kind, k, blk); tr != nil && tr.Pos(dst) >= 0 {
				inf.InTree = true
				inf.TreeParent = tr.Parent(dst)
				inf.TreeChildren = tr.Children(dst)
			}
			rep.Pending = append(rep.Pending, inf)
		}
	}
	return rep
}

// opTree finds the collective tree for (kind, k, blk) in plan, or nil for
// point-to-point kinds and unknown ops.
func opTree(plan *core.Plan, kind core.OpKind, k, blk int) (tr *core.Tree) {
	if plan == nil || k < 0 || k >= len(plan.Snodes) || plan.Snodes[k] == nil {
		return nil
	}
	plan.Snodes[k].EachOp(func(op *core.CollOp) {
		if op.Kind == kind && op.Blk == blk {
			tr = op.Tree
		}
	}, func(*core.PointOp) {})
	return tr
}

// String renders the report: blocked-state snapshot, per-class in-flight
// totals, the pending dump (capped), and the panic list.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos deadlock report: %d ranks, %d stuck, %d panicked, %d messages in flight\n",
		rep.P, len(rep.Stuck), len(rep.Panics), len(rep.Pending))

	byState := map[simmpi.RankState][]int{}
	for r, s := range rep.States {
		byState[s] = append(byState[s], r)
	}
	states := make([]simmpi.RankState, 0, len(byState))
	for s := range byState {
		states = append(states, s)
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
	b.WriteString("rank states:\n")
	for _, s := range states {
		fmt.Fprintf(&b, "  %-12s %v\n", s, condense(byState[s]))
	}

	if len(rep.Pending) > 0 {
		type key struct {
			class simmpi.Class
			kind  core.OpKind
		}
		counts := map[key]int{}
		for i := range rep.Pending {
			counts[key{rep.Pending[i].Class, rep.Pending[i].Kind}]++
		}
		keys := make([]key, 0, len(counts))
		for kk := range counts {
			keys = append(keys, kk)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].class != keys[j].class {
				return keys[i].class < keys[j].class
			}
			return keys[i].kind < keys[j].kind
		})
		b.WriteString("in flight by class/op:\n")
		for _, kk := range keys {
			fmt.Fprintf(&b, "  %-12v %-12v %d\n", kk.class, kk.kind, counts[kk])
		}

		const maxDump = 40
		b.WriteString("pending messages (oldest-first per destination):\n")
		for i := range rep.Pending {
			if i == maxDump {
				fmt.Fprintf(&b, "  ... %d more\n", len(rep.Pending)-maxDump)
				break
			}
			m := &rep.Pending[i]
			fmt.Fprintf(&b, "  %3d <- %3d  %-12v %v(K=%d,blk=%d) serial=%d %dB",
				m.Dst, m.Src, m.Class, m.Kind, m.K, m.Blk, m.Serial, m.Bytes)
			if m.InTree {
				fmt.Fprintf(&b, "  tree: parent=%d children=%v", m.TreeParent, m.TreeChildren)
			}
			b.WriteString("\n")
		}
	}

	for i := range rep.Panics {
		p := &rep.Panics[i]
		fmt.Fprintf(&b, "rank %d panicked: %v\n", p.Rank, p.Value)
	}
	return b.String()
}

// condense renders a sorted rank list as compact ranges: [0-3 7 9-12].
func condense(ranks []int) string {
	if len(ranks) == 0 {
		return "[]"
	}
	sort.Ints(ranks)
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < len(ranks); {
		j := i
		for j+1 < len(ranks) && ranks[j+1] == ranks[j]+1 {
			j++
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		if j > i+1 {
			fmt.Fprintf(&b, "%d-%d", ranks[i], ranks[j])
		} else if j == i+1 {
			fmt.Fprintf(&b, "%d %d", ranks[i], ranks[j])
		} else {
			fmt.Fprintf(&b, "%d", ranks[i])
		}
		i = j + 1
	}
	b.WriteByte(']')
	return b.String()
}
