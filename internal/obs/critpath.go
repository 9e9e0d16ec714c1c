// Post-run analysis: the merged run's message table read as per-collective
// measured forwarding chains and a wall-clock critical path for the run.
package obs

import (
	"pselinv/internal/core"
	"pselinv/internal/simmpi"
)

// collKind classifies a communication class by its collective shape.
type collKind int

const (
	// kindPoint is a single point-to-point transfer.
	kindPoint collKind = iota
	// kindBcast flows root→leaves along a tree.
	kindBcast
	// kindReduce flows leaves→root along a tree.
	kindReduce
)

// String names the kind.
func (k collKind) String() string {
	switch k {
	case kindBcast:
		return "bcast"
	case kindReduce:
		return "reduce"
	}
	return "point"
}

// classKind maps a simmpi accounting class to its collective shape.
func classKind(c simmpi.Class) collKind {
	switch c {
	case simmpi.ClassDiagBcast, simmpi.ClassColBcast, simmpi.ClassRowBcast:
		return kindBcast
	case simmpi.ClassRowReduce, simmpi.ClassDiagReduce, simmpi.ClassColReduce:
		return kindReduce
	}
	return kindPoint
}

// CollectiveChain is the measured critical path of one collective: Chain is
// the length of the longest serialized forwarding chain in the recorded
// message stream — for a broadcast, each hop to the i-th child a parent
// serves costs i sequential sends, so a flat tree over p ranks measures
// p-1 while a binary tree measures ≤ 2·⌈log₂ p⌉ (the paper's Section IV
// argument, here observed rather than derived). Depth is the plain hop
// count of the deepest path.
type CollectiveChain struct {
	Op    string `json:"op"`
	K     int    `json:"k"`
	Blk   int    `json:"blk"`
	Class string `json:"class"`
	Kind  string `json:"kind"`
	Ranks int    `json:"ranks"`
	Msgs  int    `json:"msgs"`
	Chain int    `json:"chain"`
	Depth int    `json:"depth"`
	// Topology annotations, present only when the collector was given a
	// rank→node placement (Collector.SetTopology): the number of nodes the
	// participants occupy and how many of the collective's messages
	// crossed nodes. The message set is plan-determined, so both are
	// schedule-independent and golden-stable.
	Nodes     int `json:"nodes,omitempty"`
	CrossHops int `json:"cross_hops,omitempty"`
}

// ChainSummary aggregates the measured chains of one communication class,
// with the analytic flat (p-1) and binary (2·⌈log₂ p⌉) references at the
// observed maximum fan-out for side-by-side validation.
type ChainSummary struct {
	Class     string  `json:"class"`
	Kind      string  `json:"kind"`
	Count     int     `json:"count"`
	MaxRanks  int     `json:"max_ranks"`
	ChainMax  int     `json:"chain_max"`
	ChainSum  int     `json:"chain_sum"`
	ChainMean float64 `json:"chain_mean"`
	DepthMax  int     `json:"depth_max"`
	FlatRef   int     `json:"flat_ref"`
	LogRef    int     `json:"log_ref"`
	// Topology aggregates (only on runs with SetTopology): the widest node
	// spread of any collective in the class, the worst and total measured
	// cross-node hops, and the spanning-tree reference NodesMax-1 — the
	// minimum cross-node hops any tree over that spread can achieve, the
	// analytic line the topology-aware scheme is held to.
	NodesMax int `json:"nodes_max,omitempty"`
	CrossMax int `json:"cross_max,omitempty"`
	CrossSum int `json:"cross_sum,omitempty"`
	CrossRef int `json:"cross_ref,omitempty"`
}

// CriticalPath is the wall-clock dependency chain ending at the last
// recorded event of the run: walking back, a receive depends on its
// matching send and any other event on the rank's preceding program-order
// event. It is a measured (schedule-dependent) quantity.
type CriticalPath struct {
	Hops     int            `json:"hops"`
	CommHops int            `json:"comm_hops"`
	StartNS  int64          `json:"start_ns"`
	EndNS    int64          `json:"end_ns"`
	ByClass  map[string]int `json:"by_class,omitempty"`
}

// analyze turns the message table into per-collective chains and the
// run-level critical path. complete reports whether every ring retained its
// full stream (chains from partial streams would be misleading and are
// skipped).
func (m *Merged) analyze() (chains []*CollectiveChain, crit *CriticalPath, complete bool) {
	for _, s := range m.byRank {
		if s.RingLen > int64(len(s.Events)) {
			return nil, nil, false
		}
	}
	cpn := m.byRank[0].CoresPerNode
	topo := core.Topology{CoresPerNode: cpn}
	at := make([]int, len(m.byRank))
	for _, c := range m.table.colls {
		kind, k, blk := core.DecodeOpKey(c.tag)
		cc := &CollectiveChain{
			Op: kind.String(), K: k, Blk: blk,
			Class: c.class.String(), Kind: classKind(c.class).String(),
			Msgs: len(c.msgs),
		}
		cc.Ranks, cc.Chain, cc.Depth = chainOf(c.msgs, classKind(c.class), at)
		if cpn > 0 {
			cc.Nodes = distinct(c.msgs, at, topo.Node)
			for _, e := range c.msgs {
				if topo.Node(int(e.src)) != topo.Node(int(e.dst)) {
					cc.CrossHops++
				}
			}
		}
		chains = append(chains, cc)
	}
	return chains, m.timeWalk(), true
}

// chainOf returns the participant count, the measured serialized chain and
// the hop depth of one collective. The chain is the heaviest path over its
// messages, each weighing its send index for a broadcast or point send (the
// i-th send a parent issues leaves after i serialized sends) and its arrival
// index for a reduction (a parent has absorbed its i-th arrival after i
// serialized steps); the depth is the longest path in hops. at is zeroed
// per-rank scratch, left zeroed.
func chainOf(msgs []msg, kind collKind, at []int) (ranks, chain, depth int) {
	ranks = distinct(msgs, at, func(r int) int { return r })
	weight := func(e msg) int { return int(e.sendIdx) }
	if kind == kindReduce {
		weight = func(e msg) int { return int(e.arrIdx) }
	}
	chain = longestPath(msgs, ranks, at, weight)
	depth = longestPath(msgs, ranks, at, func(msg) int { return 1 })
	return ranks, chain, depth
}

// longestPath returns the heaviest path over the messages of a collective
// among n ranks, relaxing each rank's heaviest incoming path in at. On a
// forest (or any acyclic stream) n passes reach the fixed point, and the
// maximum over all ranks is the maximum over the roots; on a cyclic stream,
// which only a malformed snapshot can hold, the bound stops it.
func longestPath(msgs []msg, n int, at []int, weight func(msg) int) int {
	best := 0
	for pass, changed := 0, true; pass < n && changed; pass++ {
		changed = false
		for _, e := range msgs {
			if d := at[e.src] + weight(e); d > at[e.dst] {
				at[e.dst], changed = d, true
				best = max(best, d)
			}
		}
	}
	for _, e := range msgs {
		at[e.src], at[e.dst] = 0, 0
	}
	return best
}

// distinct counts the distinct f(rank) over the messages' endpoints, marking
// in at (f maps ranks into its range) and clearing it again.
func distinct(msgs []msg, at []int, f func(int) int) (n int) {
	for _, e := range msgs {
		for _, r := range [2]int32{e.src, e.dst} {
			if v := f(int(r)); at[v] == 0 {
				at[v] = 1
				n++
			}
		}
	}
	for _, e := range msgs {
		at[f(int(e.src))], at[f(int(e.dst))] = 0, 0
	}
	return n
}

// timeWalk extracts the wall-clock dependency chain ending at the globally
// last recorded event: receives jump to their matching send on the source
// rank, everything else steps to the rank's previous program-order event. A
// causal stream never revisits an event, so the walk is bounded by the event
// count, which stops it on a malformed cyclic one.
func (m *Merged) timeWalk() *CriticalPath {
	r, i, n := -1, 0, 0
	lastT := int64(-1)
	for rank, s := range m.byRank {
		n += len(s.Events)
		for j, e := range s.Events {
			if int64(e.T) > lastT {
				lastT, r, i = int64(e.T), rank, j
			}
		}
	}
	if r < 0 {
		return nil
	}
	cp := &CriticalPath{EndNS: lastT, ByClass: map[string]int{}}
	for cp.Hops < n {
		e := m.byRank[r].Events[i]
		cp.Hops++
		cp.StartNS = int64(e.T)
		if sp := m.table.sendOf[r][i]; sp >= 0 {
			cp.CommHops++
			cp.ByClass[e.Class.String()]++
			r, i = int(e.Peer), int(sp)
			continue
		}
		if i == 0 {
			break
		}
		i--
	}
	return cp
}
