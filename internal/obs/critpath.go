// Post-run analysis: replay the per-rank event rings into per-collective
// measured forwarding chains and a wall-clock critical path for the run.
package obs

import (
	"sort"

	"pselinv/internal/core"
	"pselinv/internal/simmpi"
)

// CollKind classifies a communication class by its collective shape.
type CollKind int

const (
	// KindPoint is a single point-to-point transfer.
	KindPoint CollKind = iota
	// KindBcast flows root→leaves along a tree.
	KindBcast
	// KindReduce flows leaves→root along a tree.
	KindReduce
)

// String names the kind.
func (k CollKind) String() string {
	switch k {
	case KindBcast:
		return "bcast"
	case KindReduce:
		return "reduce"
	}
	return "point"
}

// ClassKind maps a simmpi accounting class to its collective shape.
func ClassKind(c simmpi.Class) CollKind {
	switch c {
	case simmpi.ClassDiagBcast, simmpi.ClassColBcast, simmpi.ClassRowBcast:
		return KindBcast
	case simmpi.ClassRowReduce, simmpi.ClassDiagReduce, simmpi.ClassColReduce:
		return KindReduce
	}
	return KindPoint
}

// msgRec is one matched (or half-matched) message inside a collective.
type msgRec struct {
	src, dst int
	sendIdx  int // 1-based serialization index among src's sends for this tag
	arrIdx   int // 1-based arrival index among dst's recvs for this tag
	sendT    int64
	recvT    int64
	// ring coordinates of the send event, for the time-walk predecessor jump
	sendRank, sendPos int
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

// tagStream is the full recorded message stream of one tag (= one
// collective or point operation).
type tagStream struct {
	class simmpi.Class
	msgs  []*msgRec
}

// analyze replays every rank's ring into per-collective chains and the
// run-level critical path. complete reports whether every ring retained
// its full stream (chains from partial streams would be misleading and
// are skipped).
func (c *Collector) analyze() (chains []*CollectiveChain, crit *CriticalPath, complete bool) {
	complete = true
	perRank := make([][]Event, c.p)
	for r := range c.ranks {
		evs, dropped := c.ranks[r].events()
		perRank[r] = evs
		if dropped > 0 {
			complete = false
		}
	}
	if !complete {
		return nil, nil, false
	}

	// First pass: index every message by (tag, src, dst), assigning the
	// per-source send serialization index and per-destination arrival index.
	type linkKey struct {
		tag      uint64
		src, dst int
	}
	streams := map[uint64]*tagStream{}
	byLink := map[linkKey]*msgRec{}
	sendSeq := map[linkKey]int{} // key.dst unused: per (tag, src) counter
	arrSeq := map[linkKey]int{}  // key.src unused: per (tag, dst) counter
	for rank, evs := range perRank {
		for pos, e := range evs {
			switch e.Dir {
			case DirSend:
				k := linkKey{e.Tag, rank, int(e.Peer)}
				st := streams[e.Tag]
				if st == nil {
					st = &tagStream{class: e.Class}
					streams[e.Tag] = st
				}
				sk := linkKey{tag: e.Tag, src: rank}
				sendSeq[sk]++
				m := byLink[k]
				if m == nil {
					m = &msgRec{src: rank, dst: int(e.Peer)}
					byLink[k] = m
					st.msgs = append(st.msgs, m)
				}
				m.sendIdx = sendSeq[sk]
				m.sendT = int64(e.T)
				m.sendRank, m.sendPos = rank, pos
			case DirRecv:
				k := linkKey{e.Tag, int(e.Peer), rank}
				st := streams[e.Tag]
				if st == nil {
					st = &tagStream{class: e.Class}
					streams[e.Tag] = st
				}
				ak := linkKey{tag: e.Tag, dst: rank}
				arrSeq[ak]++
				m := byLink[k]
				if m == nil {
					m = &msgRec{src: int(e.Peer), dst: rank}
					byLink[k] = m
					st.msgs = append(st.msgs, m)
				}
				m.arrIdx = arrSeq[ak]
				m.recvT = int64(e.T)
			}
		}
	}

	tags := make([]uint64, 0, len(streams))
	for tag := range streams {
		tags = append(tags, tag)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	for _, tag := range tags {
		st := streams[tag]
		kind, k, blk := core.DecodeOpKey(tag)
		cc := &CollectiveChain{
			Op: kind.String(), K: k, Blk: blk,
			Class: st.class.String(), Kind: ClassKind(st.class).String(),
			Msgs: len(st.msgs),
		}
		cc.Ranks, cc.Chain, cc.Depth = chainOf(st.msgs, ClassKind(st.class))
		if c.coresPerNode > 0 {
			topo := core.Topology{CoresPerNode: c.coresPerNode}
			nodes := map[int]bool{}
			for _, m := range st.msgs {
				nodes[topo.Node(m.src)] = true
				nodes[topo.Node(m.dst)] = true
				if topo.Node(m.src) != topo.Node(m.dst) {
					cc.CrossHops++
				}
			}
			cc.Nodes = len(nodes)
		}
		chains = append(chains, cc)
	}
	return chains, c.timeWalk(perRank), true
}

// chainOf computes the participant count, measured serialized chain and hop
// depth of one collective's message set.
func chainOf(msgs []*msgRec, kind CollKind) (ranks, chain, depth int) {
	nodes := map[int]bool{}
	out := map[int][]*msgRec{} // by src
	in := map[int][]*msgRec{}  // by dst
	for _, m := range msgs {
		nodes[m.src] = true
		nodes[m.dst] = true
		out[m.src] = append(out[m.src], m)
		in[m.dst] = append(in[m.dst], m)
	}
	ranks = len(nodes)
	switch kind {
	case KindReduce:
		// chainDone(v): serialized steps until v has absorbed all children,
		// counting arrival order at v. Roots are nodes with no outgoing edge.
		memoC := map[int]int{}
		memoD := map[int]int{}
		var done func(v int) int
		var dep func(v int) int
		done = func(v int) int {
			if c, ok := memoC[v]; ok {
				return c
			}
			memoC[v] = 0 // cycle guard; streams are forests in practice
			best := 0
			for _, m := range in[v] {
				if c := done(m.src) + m.arrIdx; c > best {
					best = c
				}
			}
			memoC[v] = best
			return best
		}
		dep = func(v int) int {
			if d, ok := memoD[v]; ok {
				return d
			}
			memoD[v] = 0
			best := 0
			for _, m := range in[v] {
				if d := dep(m.src) + 1; d > best {
					best = d
				}
			}
			memoD[v] = best
			return best
		}
		for v := range nodes {
			if len(out[v]) == 0 {
				if c := done(v); c > chain {
					chain = c
				}
				if d := dep(v); d > depth {
					depth = d
				}
			}
		}
	default:
		// Broadcast (and point sends, a 1-edge special case): the i-th send
		// a parent issues for this collective leaves after i serialized
		// sends, so chainArrive(child) = chainArrive(parent) + sendIdx.
		memoC := map[int]int{}
		memoD := map[int]int{}
		var arrive func(v int) int
		var dep func(v int) int
		arrive = func(v int) int {
			if c, ok := memoC[v]; ok {
				return c
			}
			memoC[v] = 0
			best := 0
			for _, m := range in[v] {
				if c := arrive(m.src) + m.sendIdx; c > best {
					best = c
				}
			}
			memoC[v] = best
			return best
		}
		dep = func(v int) int {
			if d, ok := memoD[v]; ok {
				return d
			}
			memoD[v] = 0
			best := 0
			for _, m := range in[v] {
				if d := dep(m.src) + 1; d > best {
					best = d
				}
			}
			memoD[v] = best
			return best
		}
		for v := range nodes {
			if c := arrive(v); c > chain {
				chain = c
			}
			if d := dep(v); d > depth {
				depth = d
			}
		}
	}
	return ranks, chain, depth
}

// timeWalk extracts the wall-clock dependency chain ending at the globally
// last recorded event: receives jump to their matching send on the source
// rank, everything else steps to the rank's previous program-order event.
func (c *Collector) timeWalk(perRank [][]Event) *CriticalPath {
	type pos struct{ rank, idx int }
	type linkKey struct {
		tag      uint64
		src, dst int
	}
	sendAt := map[linkKey]pos{}
	var last pos
	lastT := int64(-1)
	any := false
	for rank, evs := range perRank {
		for i, e := range evs {
			if e.Dir == DirSend {
				sendAt[linkKey{e.Tag, rank, int(e.Peer)}] = pos{rank, i}
			}
			if int64(e.T) > lastT {
				lastT = int64(e.T)
				last = pos{rank, i}
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	cp := &CriticalPath{EndNS: lastT, ByClass: map[string]int{}}
	cur := last
	for {
		e := perRank[cur.rank][cur.idx]
		cp.Hops++
		cp.StartNS = int64(e.T)
		if e.Dir == DirRecv {
			if sp, ok := sendAt[linkKey{e.Tag, int(e.Peer), cur.rank}]; ok {
				cp.CommHops++
				cp.ByClass[e.Class.String()]++
				cur = sp
				continue
			}
		}
		if cur.idx == 0 {
			return cp
		}
		cur.idx--
	}
}
