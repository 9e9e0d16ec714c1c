// Package netsim is a discrete-event timing simulator for PSelInv runs.
// It costs the per-rank programs the goroutine engine (internal/pselinv)
// executes, compiled from the plan once by core.Compile — identical trees,
// messages, dependencies, and computation tasks — but instead of moving real
// data it advances a virtual clock under a LogGP-style cost model with a
// hierarchical, inhomogeneous network:
//
//   - one CPU per rank (compute tasks serialize, higher supernodes first:
//     the model's own choice, since the engine runs a task when its
//     operands arrive, or in DAG mode by elimination-tree height),
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

// builder records a DAG in two runs of walker.walk, which add the same nodes
// and edges in the same order. The first run counts: nodes, and each node's
// out-degree at first[id+1]. After a prefix sum first[id] is where node id's
// successors start, and the second run stores every node and writes every
// edge to its source's next successor slot, into arrays of exactly the final
// size — so each node keeps its successors in insertion order, and no edge
// list or per-node slice is ever held. The start node's and the barrier's
// successors are the exception: the second run files them by key (ordered),
// and they are copied out in key order at the end.
type builder struct {
	fill    bool
	n       int32 // nodes added so far
	nodes   []node
	first   []int32
	next    []int32 // fill: each node's next successor slot
	succ    []int32
	ordered [2][]int32 // fill: the start node's | barrier's successors by key, 0 for none
}

// put stores a node of supernode k — a compute node of rank, or a message
// rank → dst — at fixed node id, or with id < 0 past the fixed region, and
// returns its id.
func (b *builder) put(id int32, kind nodeKind, rank, dst int, cost int64, k int) int32 {
	if id < 0 {
		if !b.fill {
			b.first = append(b.first, 0)
		}
		id, b.n = b.n, b.n+1
	}
	if b.fill {
		b.nodes[id] = node{kind: kind, rank: int32(rank), dst: int32(dst), cost: cost, prio: int32(k)}
	}
	return id
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

// keyed adds dependency from -> to, from the start node or the barrier, at
// position key of from's successors.
func (b *builder) keyed(from, to int32, key int) {
	if !b.fill {
		b.first[from+1]++
		return
	}
	b.ordered[from][key] = to
}

// The two nodes every DAG starts with: start, the one node without a
// predecessor, precedes each pass-1 root's diagonal factor and the barrier,
// which separates the passes as the engine's barrier does.
const start, barrier = 0, 1

// walker lays out the DAG of a plan's compiled programs. Each rank owns a
// fixed block of nodes, one per slot the engine keeps state in: an A⁻¹
// block's completion (fin), a broadcast payload's arrival (arr, per side) —
// the message that brings it, or a virtual node where it is already there —
// and a reduction's completion at the rank (done). A message resolves its
// receiver's node through core.Program.Slot, the lookup the engine's message
// handler uses. Compute and reduction messages follow the fixed blocks.
type walker struct {
	*builder
	plan  *core.Plan
	progs []*core.Program
	fin   []int32
	arr   [2][]int32
	done  []int32
	fixed int32 // nodes in the fixed blocks, start and barrier included
}

// at returns the node of the slot a (kind, K, blk) message fills at rank r,
// in the fixed blocks base. The counting run needs no target.
func (w *walker) at(base []int32, r int, kind core.OpKind, k, blk int) int32 {
	if !w.fill {
		return 0
	}
	v, _, ok := w.progs[r].Slot(kind, k, blk)
	if !ok {
		panic(fmt.Sprintf("netsim: %v K=%d blk=%d names no slot at rank %d", kind, k, blk, r))
	}
	return base[r] + v
}

// walk adds each rank's program, its roles in supernode order. A completing
// node readies its successors in the order they were added, the simulator's
// tie-break, and that order is supernode, side, block: by the walk for a
// rank's own nodes, by key for the start node's and the barrier's, which span
// ranks — the pass-1 roots by (K, side), the cross-sends by (K, side, block)
// and the leaf inversions by K.
func (w *walker) walk() {
	bp := w.plan.BP
	width := func(k int) int { return bp.Part.Width(k) }
	div := int64(1) // the diagonal inverse U⁻¹·L⁻¹; L⁻ᵀ·D⁻¹·L⁻¹ takes a third
	if w.plan.Symmetric {
		div = 3
	}
	cube := func(k int) int64 { x := int64(width(k)); return 2 * x * x * x / div }
	w.keyed(start, barrier, 2*bp.NumSnodes())
	for r, p := range w.progs {
		for _, k := range p.LeafDiags {
			t := w.put(-1, kCompute, r, 0, cube(k), k)
			w.keyed(barrier, t, 2*int(p.First[k]))
			w.edge(t, w.fin[r]+p.AinvSlot[core.Lower][p.First[k]])
		}
		for k, li := range p.Snode {
			if li < 0 {
				continue
			}
			wk := width(k)
			for _, s := range w.plan.Sides() {
				ps, arr, ro := &p.Side[s], w.arr[s][r], &p.Side[s].Roles[li]
				// Pass 1: the diagonal factor arrives (or is the root's own),
				// goes on down the tree and normalizes the owned blocks. In
				// pass 2 their cross-sends root their broadcasts (a hand-off
				// when both ends are this rank).
				if ro.Diag >= 0 {
					cr, a := &ps.Bcasts[ro.Diag], arr+ro.Diag
					if cr.Parent < 0 {
						w.keyed(start, a, 2*k+int(s))
					} else {
						w.put(a, kMsg, int(cr.Parent), r, cr.Op.Bytes, k)
						w.edge(a, barrier)
					}
					for _, c := range cr.Kids() {
						w.edge(a, w.at(w.arr[s], c, cr.Op.Kind, k, k))
					}
					for _, cr := range ps.Cross[ro.Hat : ro.Hat+ro.Own] {
						t := w.put(-1, kCompute, r, 0, dense.TrsmFlops(wk, width(cr.Blk)), k)
						w.edge(a, t)
						w.edge(t, barrier)
						if po := cr.Op; cr.Blk == po.Blk { // the group's message, keyed by its first block
							x := w.send(w.arr[s], r, po.Dst, -1, po.Kind, k, po.Blks, po.Bytes)
							id, _ := bp.Slot(po.Blk, k)
							w.keyed(barrier, x, 2*int(p.First[k])+int(s)*(len(bp.RowsOf[k])-1)+id-int(p.First[k])-1)
						}
					}
				}
				// Each broadcast block — at a non-root off its group's message —
				// goes on down its tree and feeds the products that read it.
				for v := ro.Bcast; v < ro.Bcast+ro.Bc; v++ {
					cr, a := &ps.Bcasts[v], arr+v
					if first, _, _ := p.Slot(cr.Op.Kind, k, cr.Op.Blk); cr.Parent >= 0 && first == v {
						w.put(a, kMsg, int(cr.Parent), r, cr.Op.Bytes, k)
					} else if cr.Parent >= 0 {
						w.edge(arr+first, a)
					}
					for _, c := range cr.Kids() {
						w.edge(a, w.at(w.arr[s], c, cr.Op.Kind, k, cr.Op.Blk))
					}
					x := v - ro.Bcast
					for _, t := range ps.Tasks[ro.Task+x*ro.Own : ro.Task+(x+1)*ro.Own] {
						g := w.put(-1, kCompute, r, 0, dense.GemmFlops(width(int(t.J)), wk, width(int(t.I))), k)
						w.edge(a, g)
						w.edge(w.fin[r]+t.Av, g)
						w.edge(g, w.done[r]+t.Red)
					}
				}
				for v := ro.Red; v < ro.Red+ro.Own; v++ {
					w.reduce(r, v, w.fin[r]+p.AinvSlot[s][p.Reds[v].ID])
				}
			}
			// The owned lower blocks' mirror sends and diagonal contributions.
			ro := &p.Side[core.Lower].Roles[li]
			for h := ro.Hat; ro.Diag >= 0 && h < ro.Hat+ro.Own; h++ {
				c := &p.Contribs[h]
				f := w.fin[r] + c.Av
				if w.plan.Symmetric { // the owner of (K,J) gets both
					id, _ := bp.Slot(int(c.I), k)
					x := id - int(p.First[k])
					w.send(w.fin, r, p.Side[core.Lower].Cross[h].Op.Dst, f, core.OpSymmSend, k, bp.RowsOf[k][x:x+1], int64(width(int(c.I))*wk*8))
				}
				t := w.put(-1, kCompute, r, 0, dense.GemmFlops(wk, wk, width(int(c.I))), k)
				w.edge(f, t)
				if !w.plan.Symmetric {
					w.edge(w.arr[core.Upper][r]+c.Bc, t)
				}
				w.edge(t, w.done[r]+c.Red)
			}
			if v := p.DiagRed[li]; v >= 0 {
				inv := int32(-1)
				if p.Reds[v].Parent < 0 {
					inv = w.put(-1, kCompute, r, 0, cube(k), k)
					w.edge(inv, w.fin[r]+p.AinvSlot[core.Lower][p.First[k]])
				}
				w.reduce(r, v, inv)
			}
		}
	}
}

// reduce adds rank r's completion of reduction slot v: its partial sum's
// message to the tree parent, or at the root the edge to then, which waits
// for the whole sum.
func (w *walker) reduce(r int, v, then int32) {
	cr, d := &w.progs[r].Reds[v], w.done[r]+v
	if cr.Parent < 0 {
		w.edge(d, then)
		return
	}
	w.send(w.done, r, int(cr.Parent), d, cr.Op.Kind, cr.Op.K, cr.Op.Blks, cr.Op.Bytes)
}

// send adds and returns the message of blocks blks from src to dst — a
// hand-off when dst is src — after node after (none when -1), before the node
// of the slot (kind, K, b) each block fills at dst, in the fixed blocks base.
func (w *walker) send(base []int32, src, dst int, after int32, kind core.OpKind, k int, blks []int, bytes int64) int32 {
	m := w.put(-1, kMsg, src, dst, bytes, k)
	if after >= 0 {
		w.edge(after, m)
	}
	for _, b := range blks {
		w.edge(m, w.at(base, dst, kind, k, b))
	}
	return m
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
	// order the walk added the edges; deps counts each node's predecessors.
	first, succ, deps []int32
}

// BuildDAG constructs the task graph of a plan once, from its compiled
// programs (core.Compile).
func BuildDAG(plan *core.Plan) *DAG {
	progs := core.Compile(plan)
	w := &walker{plan: plan, progs: progs, fin: make([]int32, len(progs)), done: make([]int32, len(progs)),
		arr: [2][]int32{make([]int32, len(progs)), make([]int32, len(progs))}, fixed: 2}
	for r, p := range progs {
		w.fin[r], w.fixed = w.fixed, w.fixed+int32(len(p.Ainv))
		for s := range w.arr {
			w.arr[s][r], w.fixed = w.fixed, w.fixed+int32(len(p.Side[s].Bcasts))
		}
		w.done[r], w.fixed = w.fixed, w.fixed+int32(len(p.Reds))
	}
	b := &builder{first: make([]int32, w.fixed+1), n: w.fixed}
	w.builder = b
	w.walk()
	n := len(b.first) - 1
	for i := range n {
		b.first[i+1] += b.first[i]
	}
	b.fill, b.n = true, w.fixed
	b.nodes, b.next, b.succ = make([]node, n), slices.Clone(b.first[:n]), make([]int32, b.first[n])
	b.ordered = [2][]int32{make([]int32, 2*plan.BP.NumSnodes()+1), make([]int32, 2*plan.BP.NNZBlocks())}
	w.walk()
	for from, keyed := range b.ordered {
		i := b.first[from]
		for _, to := range keyed {
			if to != 0 {
				b.succ[i], i = to, i+1
			}
		}
	}
	d := &DAG{P: plan.Grid.Size(), nodes: b.nodes, first: b.first, succ: b.succ, deps: make([]int32, n)}
	for _, to := range d.succ {
		d.deps[to]++
	}
	return d
}

// entry is an element of a heap, which pops the least (key, seq) first. The
// event queue keys by time; a resource queue by negated priority, so a CPU
// takes the highest supernode first (see the package comment), while ports and
// node links (key 0) are strictly FIFO: a NIC drains its queue in posting
// order — it has no idea which message is on the global critical path, which
// is precisely why a Flat-Tree root's long send batch blocks everything behind
// it (§III). seq, drawn from one counter in creation order, breaks ties.
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
	s.ready(start, 0)
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
