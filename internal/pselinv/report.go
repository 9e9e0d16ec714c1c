package pselinv

import (
	"fmt"
	"sort"
	"strings"

	"pselinv/internal/core"
	"pselinv/internal/simmpi"
)

// deadlock is the post-mortem of a timed-out run (RunWorld attaches its
// String to the *simmpi.TimeoutError): where every rank was blocked, who
// panicked, and what was still in flight.
type deadlock struct {
	states []simmpi.RankState
	stuck  []int
	panics []simmpi.RankPanic
	// pending lists undelivered messages grouped by destination,
	// destinations ascending, FIFO order within one destination.
	pending []inFlight
}

// inFlight is one undelivered message, annotated with the operation its tag
// decodes to and, for a collective, the receiver's place in its tree.
type inFlight struct {
	src, dst int
	class    simmpi.Class
	kind     core.OpKind
	k, blk   int
	serial   uint64
	bytes    int64
	role     *core.CollRole // dst's role in the collective; nil for point-to-point ops
}

// postMortem captures the state of world after the run timed out with te.
// Call before the world is closed: closing releases the blocked goroutines
// the report is about.
func (e *Engine) postMortem(world *simmpi.World, te *simmpi.TimeoutError) *deadlock {
	d := &deadlock{states: make([]simmpi.RankState, world.P), stuck: te.Stuck, panics: te.Panics}
	for r := range d.states {
		d.states[r] = world.RankStateOf(r)
	}
	for dst := 0; dst < world.P; dst++ {
		for _, msg := range world.PendingMessages(dst) {
			kind, k, blk := core.DecodeOpKey(msg.Tag)
			d.pending = append(d.pending, inFlight{
				src: msg.Src, dst: dst, class: msg.Class,
				kind: kind, k: k, blk: blk,
				serial: msg.Serial, bytes: msg.Bytes(),
				role: e.collRole(dst, kind, k, blk),
			})
		}
	}
	return d
}

// collRole resolves rank's role in the collective a message tagged (kind, k,
// blk) belongs to through its program's slots, or nil for point-to-point
// kinds and tags that name no slot there.
func (e *Engine) collRole(rank int, kind core.OpKind, k, blk int) *core.CollRole {
	prog := e.tmpl.programs[rank]
	v, _, ok := prog.Slot(kind, k, blk)
	if !ok {
		return nil
	}
	switch kind {
	case core.OpRowReduce, core.OpColReduce, core.OpDiagReduce:
		return &prog.Reds[v]
	case core.OpDiagBcast, core.OpColBcast, core.OpDiagBcastRow, core.OpRowBcast:
		return &prog.Side[wire[kind].side].Bcasts[v]
	}
	return nil
}

// String renders the report: blocked-state snapshot, per-class in-flight
// totals, the pending dump (capped), and the panic list.
func (d *deadlock) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deadlock report: %d ranks, %d stuck, %d panicked, %d messages in flight\n",
		len(d.states), len(d.stuck), len(d.panics), len(d.pending))

	byState := map[simmpi.RankState][]int{}
	for r, s := range d.states {
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

	if len(d.pending) > 0 {
		type key struct {
			class simmpi.Class
			kind  core.OpKind
		}
		counts := map[key]int{}
		for i := range d.pending {
			counts[key{d.pending[i].class, d.pending[i].kind}]++
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
		for i := range d.pending {
			if i == maxDump {
				fmt.Fprintf(&b, "  ... %d more\n", len(d.pending)-maxDump)
				break
			}
			m := &d.pending[i]
			fmt.Fprintf(&b, "  %3d <- %3d  %-12v %v(K=%d,blk=%d) serial=%d %dB",
				m.dst, m.src, m.class, m.kind, m.k, m.blk, m.serial, m.bytes)
			if m.role != nil {
				fmt.Fprintf(&b, "  tree: parent=%d children=%v", m.role.Parent, m.role.Kids())
			}
			b.WriteString("\n")
		}
	}

	for i := range d.panics {
		p := &d.panics[i]
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
