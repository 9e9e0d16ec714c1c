// Package netsim is a discrete-event timing simulator for PSelInv runs.
// It executes the same communication plan as the goroutine engine
// (internal/pselinv) — identical trees, messages, dependencies, and
// computation tasks — but instead of moving real data it advances a
// virtual clock under a LogGP-style cost model with a hierarchical,
// inhomogeneous network:
//
//   - one CPU per rank (compute tasks serialize; higher supernodes first,
//     matching the engine's descending traversal),
//   - one injection ("send") and one ejection ("recv") port per rank,
//     drained strictly FIFO the way a NIC is — this is what makes a
//     Flat-Tree root a serial bottleneck,
//   - per-node shared up/down links (CoresPerNode ranks funnel through
//     them): concentrated communication roles — a Flat-Tree root row, the
//     striped internal nodes of a plain Binary-Tree — become the
//     "instantaneous hot spots" of §III,
//   - inter-node cost grows with node distance and carries seeded
//     per-node-pair jitter, reproducing the placement-induced run-to-run
//     variability of Figure 8.
//
// The simulator substitutes for the paper's 12,100-core Cray XC30: absolute
// seconds are a model, but critical-path structure, port contention and
// hot spots — the quantities the tree schemes change — are simulated
// faithfully from the real plan.
package netsim

import (
	"fmt"
	"math"
	"slices"

	"pselinv/internal/core"
	"pselinv/internal/dense"
)

// Params is the network and processor cost model.
type Params struct {
	FlopRate     float64 // effective flop/s per rank for the block kernels
	CoresPerNode int     // ranks per physical node
	SendOverhead float64 // seconds of injection-port occupancy per message
	RecvOverhead float64 // seconds of ejection-port occupancy per message
	PortBW       float64 // injection/ejection bandwidth per rank, bytes/s
	// NodeBW is the bandwidth of a node's shared up-link and down-link.
	// All CoresPerNode ranks of a node funnel their inter-node traffic
	// through these two resources.
	NodeBW       float64
	IntraBW      float64 // intra-node transfer bandwidth, bytes/s
	InterBW      float64 // inter-node wire bandwidth, bytes/s
	IntraLatency float64 // seconds
	InterLatency float64 // base inter-node latency, seconds
	HopLatency   float64 // extra latency per log2(node distance), seconds
	Jitter       float64 // relative inhomogeneity of inter-node links
	Seed         uint64  // placement seed: vary per run for error bars
}

// DefaultParams approximates a Cray XC30 (Edison) node: 24 cores, ~µs
// latencies, GB/s-scale bandwidths, and a third of link performance lost to
// placement in the worst case.
func DefaultParams() Params {
	return Params{
		FlopRate:     5e9,
		CoresPerNode: 24,
		SendOverhead: 0.7e-6,
		RecvOverhead: 0.5e-6,
		PortBW:       4e9,
		NodeBW:       6e9,
		IntraBW:      8e9,
		InterBW:      2.5e9,
		IntraLatency: 0.4e-6,
		InterLatency: 1.8e-6,
		HopLatency:   0.15e-6,
		Jitter:       0.35,
		Seed:         1,
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitHash maps (seed, a, b) to [0, 1) deterministically and symmetrically.
func unitHash(seed uint64, a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	h := splitmix64(seed ^ splitmix64(uint64(a)<<32|uint64(uint32(b))))
	return float64(h>>11) / float64(1<<53)
}

func (p *Params) node(rank int) int { return rank / p.CoresPerNode }

// Latency returns the one-way wire latency between two ranks in seconds,
// including the per-link placement jitter. internal/chaos uses it to skew
// adversarial message delays with the same inhomogeneity profile the
// scaling experiments simulate.
func (p *Params) Latency(src, dst int) float64 {
	na, nb := p.node(src), p.node(dst)
	if na == nb {
		return p.IntraLatency
	}
	d := na - nb
	if d < 0 {
		d = -d
	}
	l := p.InterLatency + p.HopLatency*math.Log2(float64(1+d))
	return l * (1 + p.Jitter*unitHash(p.Seed, na, nb))
}

// linkBW returns the wire transfer bandwidth between two ranks.
func (p *Params) linkBW(src, dst int) float64 {
	na, nb := p.node(src), p.node(dst)
	if na == nb {
		return p.IntraBW
	}
	return p.InterBW / (1 + p.Jitter*unitHash(p.Seed^0xdead, na, nb))
}

// nodeLinkBW is a node link's effective bandwidth under placement jitter.
func (p *Params) nodeLinkBW(nodeID int) float64 {
	return p.NodeBW / (1 + p.Jitter*unitHash(p.Seed^0xbeef, nodeID, nodeID))
}

// --- DAG ---------------------------------------------------------------

type nodeKind uint8

const (
	kVirtual nodeKind = iota
	kCompute
	kMsg
)

// node is one task of the DAG; its successors live in the DAG's CSR array.
type node struct {
	kind nodeKind
	rank int32 // compute: executor; msg: source
	dst  int32 // msg destination
	prio int32
	cost int64 // compute: flops; msg: bytes
}

// builder records a DAG in two runs of buildDAG, which add the same nodes
// and edges in the same order. The first run counts: nodes, and each
// node's out-degree at first[id+1]. After a prefix sum first[id] is where
// node id's successors start, and the second run stores every node and
// writes every edge to its source's next successor slot, into arrays of
// exactly the final size — so each node keeps its successors in insertion
// order, and no edge list or per-node slice is ever held.
type builder struct {
	fill  bool
	n     int32 // nodes added so far
	nodes []node
	first []int32
	next  []int32 // fill: each node's next successor slot
	succ  []int32
}

func (b *builder) add(x node) int32 {
	if b.fill {
		b.nodes[b.n] = x
	} else {
		b.first = append(b.first, 0)
	}
	b.n++
	return b.n - 1
}

func (b *builder) virtual(prio int32) int32 {
	return b.add(node{kind: kVirtual, prio: prio})
}

func (b *builder) compute(rank int, flops int64, prio int32) int32 {
	return b.add(node{kind: kCompute, rank: int32(rank), cost: flops, prio: prio})
}

func (b *builder) msg(src, dst int, bytes int64, prio int32) int32 {
	return b.add(node{kind: kMsg, rank: int32(src), dst: int32(dst), cost: bytes, prio: prio})
}

// edge adds dependency from -> to (to waits for from).
func (b *builder) edge(from, to int32) {
	if !b.fill {
		b.first[from+1]++
		return
	}
	b.succ[b.next[from]] = to
	b.next[from]++
}

// buildDAG mirrors internal/pselinv's two passes over the plan: per supernode,
// each side the plan runs contributes the same block of nodes (pass-1
// broadcast and TRSMs, cross-sends, broadcasts, GEMMs, reductions), read with
// rows and columns exchanged on the upper side (core.Side.Block).
func buildDAG(plan *core.Plan, b *builder) {
	bp := plan.BP
	part := bp.Part
	div := int64(1) // the diagonal inverse U⁻¹·L⁻¹; L⁻ᵀ·D⁻¹·L⁻¹ takes a third
	if plan.Symmetric {
		div = 3
	}
	cube := func(k int) int64 { w := int64(part.Width(k)); return 2 * w * w * w / div }

	barrier := b.virtual(1 << 30)
	// fin holds, by block slot — a lower block (I,J) at J's first slot plus
	// I's position in RowsOf[J], its upper mirror (J,I) that plus the lower
	// triangle's block count — the node after which A⁻¹ of the block is
	// final, created on first use; 0 (the barrier) is none yet.
	first := make([]int, len(bp.RowsOf)+1)
	for k, rows := range bp.RowsOf {
		first[k+1] = first[k] + len(rows)
	}
	nb := first[len(bp.RowsOf)]
	fin := make([]int32, 2*nb)
	finOf := func(i, j int) int32 {
		slot := 0
		if i < j {
			i, j, slot = j, i, nb
		}
		p, _ := slices.BinarySearch(bp.RowsOf[j], i)
		slot += first[j] + p
		if fin[slot] == 0 {
			fin[slot] = b.virtual(int32(min(i, j)))
		}
		return fin[slot]
	}
	// bcastTree adds the messages of broadcast op, whose root holds the
	// payload after node ready (-1: from the start), and returns, position by
	// position (core.Tree.Pos), the node after which each participant holds
	// it. Every message also feeds sink when sink >= 0.
	bcastTree := func(op *core.CollOp, ready, sink int32) []int32 {
		tr := op.Tree
		d := make([]int32, tr.Size())
		var walk func(rank int, after int32)
		walk = func(rank int, after int32) {
			for _, c := range tr.Children(rank) {
				m := b.msg(rank, c, op.Bytes, int32(op.K))
				if after >= 0 {
					b.edge(after, m)
				}
				d[tr.Pos(c)] = m
				if sink >= 0 {
					b.edge(m, sink)
				}
				walk(c, m)
			}
		}
		d[tr.Pos(tr.Root)] = ready
		walk(tr.Root, ready)
		return d
	}
	// reduceTree adds one completion node per participant of reduction op
	// (by position) and the messages that carry each partial sum to its
	// parent's completion.
	reduceTree := func(op *core.CollOp) []int32 {
		parts := op.Tree.Participants()
		d := make([]int32, len(parts))
		for i := range d {
			d[i] = b.virtual(int32(op.K))
		}
		for i, up := range op.Tree.Parents() {
			if up >= 0 {
				m := b.msg(parts[i], parts[up], op.Bytes, int32(op.K))
				b.edge(d[i], m)
				b.edge(m, d[up])
			}
		}
		return d
	}
	// at reads a collective's per-position nodes at rank.
	at := func(d []int32, op *core.CollOp, rank int) int32 { return d[op.Tree.Pos(rank)] }

	for _, sp := range plan.Snodes {
		k := sp.K
		prio := int32(k)
		if len(sp.C) == 0 {
			t := b.compute(plan.Owners.OwnerOfBlock(k, k), cube(k), prio)
			b.edge(barrier, t)
			b.edge(t, finOf(k, k))
			continue
		}
		ddone := reduceTree(sp.DiagReduce)
		// crossed[s][x] is the node after which side s's normalized block
		// sp.C[x] is present at its broadcast root.
		var crossed [2][]int32
		for _, s := range plan.Sides() {
			ops := sp.Side(s)
			owner := func(i, j int) int { return plan.Owners.OwnerOfBlock(s.Block(i, j)) }
			finAt := func(i, j int) int32 { return finOf(s.Block(i, j)) }
			// ---- Pass 1: diagonal broadcast then TRSMs; all feed the barrier.
			avail := bcastTree(ops.DiagBcast, -1, barrier)
			for _, i := range sp.C {
				o := owner(i, k)
				t := b.compute(o, dense.TrsmFlops(part.Width(k), part.Width(i)), prio)
				if dep := at(avail, ops.DiagBcast, o); dep >= 0 {
					b.edge(dep, t)
				}
				b.edge(t, barrier)
			}
			// ---- Pass 2. The cross-send (a hand-off when both ends are one
			// rank) roots the broadcast of block sp.C[x].
			bcast := make([][]int32, len(sp.C))
			crossed[s] = make([]int32, len(sp.C))
			for x := range sp.C {
				po := &ops.Cross[x]
				var ready int32
				if po.Src == po.Dst {
					ready = b.virtual(prio)
				} else {
					ready = b.msg(po.Src, po.Dst, po.Bytes, prio)
				}
				b.edge(barrier, ready)
				crossed[s][x] = ready
				bcast[x] = bcastTree(&ops.Bcasts[x], ready, -1)
			}
			// GEMMs feed the reduction of their block row (lower) / column
			// (upper), whose root finalizes A⁻¹ at (J,K).
			red := make([][]int32, len(sp.C))
			for x := range sp.C {
				red[x] = reduceTree(&ops.Reduces[x])
			}
			for xi, i := range sp.C {
				for xj, j := range sp.C {
					o := owner(j, i)
					g := b.compute(o, dense.GemmFlops(part.Width(j), part.Width(k), part.Width(i)), prio)
					b.edge(at(bcast[xi], &ops.Bcasts[xi], o), g)
					b.edge(finAt(j, i), g)
					b.edge(g, at(red[xj], &ops.Reduces[xj], o))
				}
			}
			for x, j := range sp.C {
				b.edge(at(red[x], &ops.Reduces[x], ops.Reduces[x].Tree.Root), finAt(j, k))
			}
		}
		for x, j := range sp.C {
			fjk := finOf(j, k)
			if plan.Symmetric {
				// Mirror send to the upper triangle.
				so := &sp.SymmSends[x]
				if so.Src == so.Dst {
					b.edge(fjk, finOf(k, j))
				} else {
					m := b.msg(so.Src, so.Dst, so.Bytes, prio)
					b.edge(fjk, m)
					b.edge(m, finOf(k, j))
				}
			}
			// Diagonal contribution Û_{K,J}·A⁻¹_{J,K} at the lower reduction's
			// root (for the symmetric path Û is the locally held L̂ᵀ; for
			// the general path it must also wait for the Û cross-send).
			root := sp.RowReduces[x].Tree.Root
			t := b.compute(root, dense.GemmFlops(part.Width(k), part.Width(k), part.Width(j)), prio)
			b.edge(fjk, t)
			if !plan.Symmetric {
				b.edge(crossed[core.Upper][x], t)
			}
			b.edge(t, at(ddone, sp.DiagReduce, root))
		}
		inv := b.compute(sp.DiagReduce.Tree.Root, cube(k), prio)
		b.edge(at(ddone, sp.DiagReduce, sp.DiagReduce.Tree.Root), inv)
		b.edge(inv, finOf(k, k))
	}
}

// --- Event-driven execution ---------------------------------------------

// Result reports the simulated run.
type Result struct {
	Makespan float64 // seconds
	// ComputeTime is per-rank CPU-busy seconds; CommTime is the remainder
	// of the makespan (waiting in or for communication), the same
	// attribution a profiler of a communication library produces.
	ComputeTime []float64
	SendBusy    []float64
	RecvBusy    []float64
	MsgCount    int64
	BytesMoved  int64
}

// MeanCompute averages per-rank compute-busy time over busy ranks.
func (r *Result) MeanCompute() float64 {
	var s float64
	n := 0
	for _, c := range r.ComputeTime {
		if c > 0 {
			s += c
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// CommTime reports the communication/wait share of the makespan for the
// mean busy rank.
func (r *Result) CommTime() float64 {
	c := r.Makespan - r.MeanCompute()
	if c < 0 {
		return 0
	}
	return c
}

// DAG is a reusable task graph built from a plan. Building is the
// expensive part; SimulateDAG can replay it under many network parameter
// sets (e.g. placement seeds) without rebuilding.
type DAG struct {
	P     int
	nodes []node
	// The successors of node id are succ[first[id]:first[id+1]], in the
	// order buildDAG added the edges; deps counts each node's predecessors.
	first, succ, deps []int32
}

// BuildDAG constructs the task graph of a plan once.
func BuildDAG(plan *core.Plan) *DAG {
	b := &builder{first: []int32{0}}
	buildDAG(plan, b)
	n := len(b.first) - 1
	for i := range n {
		b.first[i+1] += b.first[i]
	}
	b.fill, b.n = true, 0
	b.nodes, b.next, b.succ = make([]node, n), slices.Clone(b.first[:n]), make([]int32, b.first[n])
	buildDAG(plan, b)
	d := &DAG{P: plan.Grid.Size(), nodes: b.nodes, first: b.first, succ: b.succ, deps: make([]int32, n)}
	for _, to := range d.succ {
		d.deps[to]++
	}
	return d
}

// Simulate runs the plan through the cost model and returns timing results.
func Simulate(plan *core.Plan, params Params) *Result {
	return SimulateDAG(BuildDAG(plan), params)
}

// entry is an element of a heap, which pops the least (key, seq) first. The
// event queue keys by time; a resource queue by negated priority, so a CPU
// takes the highest supernode first, like the engine's descending
// traversal, while ports and node links (key 0) are strictly FIFO: a NIC
// drains its queue in posting order — it has no idea which message is on
// the global critical path, which is precisely why a Flat-Tree root's long
// send batch blocks everything behind it (§III). seq, drawn from one counter
// in creation order, breaks ties.
type entry struct {
	key float64
	seq int64
	res int32 // event: the resource it concerns (see sim.at)
	id  int32 // DAG node
}

// heap is a hand-rolled binary min-heap, avoiding container/heap interface
// boxing on the hot path.
type heap []entry

func (h heap) less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].seq < h[j].seq
}

func (h *heap) push(e entry) {
	*h = append(*h, e)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a.less(p, i) {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *heap) pop() entry {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	*h = a
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && a.less(r, l) {
			c = r
		}
		if a.less(i, c) {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	return top
}

// Resource classes. Every resource serves one queued DAG node at a time for
// over + cost/rate seconds; the classes differ in those two numbers and in
// where a served node goes next.
const (
	cpu      uint8 = iota // a rank's processor: compute nodes, by priority
	sendPort              // a rank's injection port
	recvPort              // a rank's ejection port
	upLink                // a physical node's shared up-link
	downLink              // a physical node's shared down-link
)

type resource struct {
	class      uint8
	busy       bool
	over, rate float64
	queue      heap
}

// sim is one replay. Resources are indexed by class in blocks: the P CPUs,
// send ports and receive ports by rank, then the up-links and down-links by
// physical node; busy[r] accumulates resource r's service seconds. The
// embedded copy of the DAG counts its own deps down.
type sim struct {
	DAG
	params Params
	events heap
	seq    int64
	rs     []resource
	busy   []float64
	p, n   int32 // ranks and physical nodes
	msgs   int64
	bytes  int64
}

func newSim(dag *DAG, params Params) *sim {
	p, n := dag.P, (dag.P+params.CoresPerNode-1)/params.CoresPerNode
	s := &sim{DAG: *dag, params: params,
		rs: make([]resource, 3*p+2*n), busy: make([]float64, 3*p+2*n), p: int32(p), n: int32(n)}
	for r := range p {
		s.rs[r] = resource{class: cpu, rate: params.FlopRate}
		s.rs[p+r] = resource{class: sendPort, over: params.SendOverhead, rate: params.PortBW}
		s.rs[2*p+r] = resource{class: recvPort, over: params.RecvOverhead, rate: params.PortBW}
	}
	for i := range n {
		bw := params.nodeLinkBW(i)
		s.rs[3*p+i] = resource{class: upLink, rate: bw}
		s.rs[3*p+n+i] = resource{class: downLink, rate: bw}
	}
	s.deps = slices.Clone(dag.deps)
	return s
}

func (s *sim) run() *Result {
	// Snapshot the initially ready set BEFORE seeding any of it: ready()
	// can complete virtual nodes immediately, cascading dependency counts
	// of later nodes to zero mid-scan, which must not re-ready them (they
	// are readied exactly once by the cascade itself).
	var initial []int32
	for id, d := range s.deps {
		if d == 0 {
			initial = append(initial, int32(id))
		}
	}
	for _, id := range initial {
		s.ready(id, 0)
	}
	var now float64
	for len(s.events) > 0 {
		ev := s.events.pop()
		now = ev.key
		s.handle(ev)
	}
	for id, d := range s.deps {
		if d > 0 {
			panic(fmt.Sprintf("netsim: node %d never became ready (deadlocked DAG)", id))
		}
	}
	p := int(s.p)
	return &Result{Makespan: now, ComputeTime: s.busy[:p:p], SendBusy: s.busy[p : 2*p : 2*p],
		RecvBusy: s.busy[2*p : 3*p : 3*p], MsgCount: s.msgs, BytesMoved: s.bytes}
}

// SimulateDAG replays a prebuilt task graph under the given parameters.
func SimulateDAG(dag *DAG, params Params) *Result {
	return newSim(dag, params).run()
}

// at schedules an event at time t. There are two kinds: resource r finished
// serving node id, or, with r passed as ^r, node id arrives at r's queue.
func (s *sim) at(t float64, r, id int32) {
	s.seq++
	s.events.push(entry{key: t, seq: s.seq, res: r, id: id})
}

// enqueue queues node id at resource r under key and serves it if r is idle.
func (s *sim) enqueue(r int32, key float64, id int32, t float64) {
	s.seq++
	s.rs[r].queue.push(entry{key: key, seq: s.seq, id: id})
	s.start(r, t)
}

// start serves resource r's next queued node, if r is idle.
func (s *sim) start(r int32, t float64) {
	rs := &s.rs[r]
	if rs.busy || len(rs.queue) == 0 {
		return
	}
	id := rs.queue.pop().id
	dur := rs.over + float64(s.nodes[id].cost)/rs.rate
	rs.busy = true
	s.busy[r] += dur
	s.at(t+dur, r, id)
}

// ready is called when all dependencies of a DAG node are satisfied.
func (s *sim) ready(id int32, t float64) {
	n := &s.nodes[id]
	switch {
	case n.kind == kCompute:
		s.enqueue(n.rank, -float64(n.prio), id, t)
	case n.kind == kMsg && n.rank != n.dst:
		s.msgs++
		s.bytes += n.cost
		s.enqueue(s.p+n.rank, 0, id, t)
	default: // a virtual node or a local hand-off: no cost
		s.complete(id, t)
	}
}

func (s *sim) complete(id int32, t float64) {
	for _, out := range s.succ[s.first[id]:s.first[id+1]] {
		s.deps[out]--
		if s.deps[out] == 0 {
			s.ready(out, t)
		} else if s.deps[out] < 0 {
			panic(fmt.Sprintf("netsim: dependency underflow: node %d -> %d", id, out))
		}
	}
}

func (s *sim) handle(ev entry) {
	t, r := ev.key, ev.res
	if r < 0 {
		s.enqueue(^r, 0, ev.id, t)
		return
	}
	rs := &s.rs[r]
	rs.busy = false
	if rs.class == cpu || rs.class == recvPort { // the node is done
		s.complete(ev.id, t)
		s.start(r, t)
		return
	}
	s.start(r, t)
	n := &s.nodes[ev.id]
	src, dst := int(n.rank), int(n.dst)
	recv := 2*s.p + n.dst
	switch rs.class {
	case sendPort:
		if s.params.node(src) == s.params.node(dst) {
			// Intra-node: a memory copy, no shared NIC involved.
			s.at(t+s.params.IntraLatency+float64(n.cost)/s.params.IntraBW, ^recv, ev.id)
		} else {
			s.enqueue(3*s.p+int32(s.params.node(src)), 0, ev.id, t)
		}
	case upLink:
		arrive := t + s.params.Latency(src, dst) + float64(n.cost)/s.params.linkBW(src, dst)
		s.at(arrive, ^(3*s.p + s.n + int32(s.params.node(dst))), ev.id)
	case downLink:
		s.at(t, ^recv, ev.id)
	}
}
