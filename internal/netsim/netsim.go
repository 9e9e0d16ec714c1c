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

// latency returns the one-way wire latency between two ranks.
func (p *Params) latency(src, dst int) float64 {
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

// Latency returns the one-way wire latency between two ranks in seconds,
// including the per-link placement jitter. internal/chaos uses it to skew
// adversarial message delays with the same inhomogeneity profile the
// scaling experiments simulate.
func (p *Params) Latency(src, dst int) float64 { return p.latency(src, dst) }

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

type node struct {
	kind  nodeKind
	rank  int32 // compute: executor; msg: source
	dst   int32 // msg destination
	flops int64
	bytes int64
	prio  int32
	deps  int32
	outs  []int32
}

type builder struct {
	nodes []node
}

func (b *builder) add(n node) int32 {
	b.nodes = append(b.nodes, n)
	return int32(len(b.nodes) - 1)
}

func (b *builder) virtual(prio int32) int32 {
	return b.add(node{kind: kVirtual, prio: prio})
}

func (b *builder) compute(rank int, flops int64, prio int32) int32 {
	return b.add(node{kind: kCompute, rank: int32(rank), flops: flops, prio: prio})
}

func (b *builder) msg(src, dst int, bytes int64, prio int32) int32 {
	return b.add(node{kind: kMsg, rank: int32(src), dst: int32(dst), bytes: bytes, prio: prio})
}

// edge adds dependency from -> to (to waits for from).
func (b *builder) edge(from, to int32) {
	b.nodes[from].outs = append(b.nodes[from].outs, to)
	b.nodes[to].deps++
}

// buildDAG mirrors internal/pselinv's two passes over the plan: per supernode,
// each side the plan runs contributes the same block of nodes (pass-1
// broadcast and TRSMs, cross-sends, broadcasts, GEMMs, reductions), read with
// rows and columns exchanged on the upper side (core.Side.Block).
func buildDAG(plan *core.Plan) *builder {
	b := &builder{}
	part := plan.BP.Part
	div := int64(1) // the diagonal inverse U⁻¹·L⁻¹; L⁻ᵀ·D⁻¹·L⁻¹ takes a third
	if plan.Symmetric {
		div = 3
	}
	cube := func(k int) int64 { w := int64(part.Width(k)); return 2 * w * w * w / div }

	barrier := b.virtual(1 << 30)
	fin := map[int64]int32{}
	finOf := func(i, j int) int32 {
		key := int64(i)<<32 | int64(uint32(j))
		if id, ok := fin[key]; ok {
			return id
		}
		id := b.virtual(int32(min(i, j)))
		fin[key] = id
		return id
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
	return b
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
	P        int
	nodes    []node
	initDeps []int32
}

// BuildDAG constructs the task graph of a plan once.
func BuildDAG(plan *core.Plan) *DAG {
	b := buildDAG(plan)
	d := &DAG{P: plan.Grid.Size(), nodes: b.nodes, initDeps: make([]int32, len(b.nodes))}
	for i := range b.nodes {
		d.initDeps[i] = b.nodes[i].deps
	}
	return d
}

// Simulate runs the plan through the cost model and returns timing results.
func Simulate(plan *core.Plan, params Params) *Result {
	return SimulateDAG(BuildDAG(plan), params)
}

// event kinds.
const (
	evCPUDone uint8 = iota
	evSendDone
	evNodeUpDone
	evEnqueueNodeDown
	evNodeDownDone
	evEnqueueRecv
	evRecvDone
)

type event struct {
	t    float64
	seq  int64
	kind uint8
	res  int32 // rank or node index, depending on kind
	id   int32 // DAG node
}

// eventHeap is a hand-rolled binary min-heap of events ordered by (t, seq),
// avoiding container/heap interface boxing on the hot path.
type eventHeap struct{ a []event }

func (h *eventHeap) less(i, j int) bool {
	if h.a[i].t != h.a[j].t {
		return h.a[i].t < h.a[j].t
	}
	return h.a[i].seq < h.a[j].seq
}

func (h *eventHeap) push(e event) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.less(p, i) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *eventHeap) pop() event {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a = h.a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && h.less(r, l) {
			c = r
		}
		if h.less(i, c) {
			break
		}
		h.a[i], h.a[c] = h.a[c], h.a[i]
		i = c
	}
	return top
}

// prioItem is a queue entry. CPUs schedule by (priority desc, seq asc): the
// engine works on the highest supernode first, like the real code's
// descending traversal. Network ports and node links are strictly FIFO
// (prio left 0): a NIC drains its queue in posting order — it has no idea
// which message is on the global critical path, which is precisely why a
// Flat-Tree root's long send batch blocks everything behind it (§III).
type prioItem struct {
	prio int32
	seq  int64
	id   int32
}

// itemHeap is a hand-rolled binary min-heap ordered by (prio desc, seq asc).
type itemHeap struct{ a []prioItem }

func (h *itemHeap) len() int { return len(h.a) }

func (h *itemHeap) less(i, j int) bool {
	if h.a[i].prio != h.a[j].prio {
		return h.a[i].prio > h.a[j].prio
	}
	return h.a[i].seq < h.a[j].seq
}

func (h *itemHeap) push(e prioItem) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.less(p, i) {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *itemHeap) pop() prioItem {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a = h.a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		c := l
		if r < n && h.less(r, l) {
			c = r
		}
		if h.less(i, c) {
			break
		}
		h.a[i], h.a[c] = h.a[c], h.a[i]
		i = c
	}
	return top
}

type resource struct {
	busy  bool
	queue itemHeap
}

type sim struct {
	params Params
	nodes  []node
	deps   []int32
	events eventHeap
	seq    int64
	now    float64

	cpu      []resource
	send     []resource
	recv     []resource
	nodeUp   []resource
	nodeDown []resource

	res Result
}

func newSim(dag *DAG, params Params) *sim {
	p := dag.P
	numNodes := (p + params.CoresPerNode - 1) / params.CoresPerNode
	s := &sim{
		params:   params,
		nodes:    dag.nodes,
		deps:     append([]int32(nil), dag.initDeps...),
		cpu:      make([]resource, p),
		send:     make([]resource, p),
		recv:     make([]resource, p),
		nodeUp:   make([]resource, numNodes),
		nodeDown: make([]resource, numNodes),
	}
	s.res.ComputeTime = make([]float64, p)
	s.res.SendBusy = make([]float64, p)
	s.res.RecvBusy = make([]float64, p)
	return s
}

func (s *sim) run() *Result {
	// Snapshot the initially ready set BEFORE seeding any of it: ready()
	// can complete virtual nodes immediately, cascading dependency counts
	// of later nodes to zero mid-scan, which must not re-ready them (they
	// are readied exactly once by the cascade itself).
	var initial []int32
	for id := range s.nodes {
		if s.deps[id] == 0 {
			initial = append(initial, int32(id))
		}
	}
	for _, id := range initial {
		s.ready(id, 0)
	}
	for len(s.events.a) > 0 {
		ev := s.events.pop()
		s.now = ev.t
		s.handle(ev)
	}
	s.res.Makespan = s.now
	for id := range s.nodes {
		if s.deps[id] > 0 {
			panic(fmt.Sprintf("netsim: node %d never became ready (deadlocked DAG)", id))
		}
	}
	return &s.res
}

// SimulateDAG replays a prebuilt task graph under the given parameters.
func SimulateDAG(dag *DAG, params Params) *Result {
	return newSim(dag, params).run()
}

func (s *sim) at(t float64, kind uint8, res, id int32) {
	s.seq++
	s.events.push(event{t: t, seq: s.seq, kind: kind, res: res, id: id})
}

func (s *sim) nextSeq() int64 { s.seq++; return s.seq }

// ready is called when all dependencies of a DAG node are satisfied.
func (s *sim) ready(id int32, t float64) {
	n := &s.nodes[id]
	switch n.kind {
	case kVirtual:
		s.complete(id, t)
	case kCompute:
		s.cpu[n.rank].queue.push(prioItem{prio: n.prio, seq: s.nextSeq(), id: id})
		s.tryCPU(n.rank, t)
	case kMsg:
		if n.rank == n.dst {
			s.complete(id, t) // local hand-off: no network cost
			return
		}
		s.send[n.rank].queue.push(prioItem{seq: s.nextSeq(), id: id})
		s.trySend(n.rank, t)
	}
}

func (s *sim) complete(id int32, t float64) {
	for _, out := range s.nodes[id].outs {
		s.deps[out]--
		if s.deps[out] == 0 {
			s.ready(out, t)
		} else if s.deps[out] < 0 {
			panic(fmt.Sprintf("netsim: dependency underflow: node %d (kind %d rank %d) -> out %d (kind %d rank %d dst %d), total nodes %d",
				id, s.nodes[id].kind, s.nodes[id].rank, out, s.nodes[out].kind, s.nodes[out].rank, s.nodes[out].dst, len(s.nodes)))
		}
	}
}

func (s *sim) tryCPU(rank int32, t float64) {
	r := &s.cpu[rank]
	if r.busy || r.queue.len() == 0 {
		return
	}
	it := r.queue.pop()
	dur := float64(s.nodes[it.id].flops) / s.params.FlopRate
	r.busy = true
	s.res.ComputeTime[rank] += dur
	s.at(t+dur, evCPUDone, rank, it.id)
}

func (s *sim) trySend(rank int32, t float64) {
	r := &s.send[rank]
	if r.busy || r.queue.len() == 0 {
		return
	}
	it := r.queue.pop()
	n := &s.nodes[it.id]
	inject := s.params.SendOverhead + float64(n.bytes)/s.params.PortBW
	s.res.MsgCount++
	s.res.BytesMoved += n.bytes
	r.busy = true
	s.res.SendBusy[rank] += inject
	s.at(t+inject, evSendDone, rank, it.id)
}

func (s *sim) tryNodeUp(nodeID int32, t float64) {
	r := &s.nodeUp[nodeID]
	if r.busy || r.queue.len() == 0 {
		return
	}
	it := r.queue.pop()
	occ := float64(s.nodes[it.id].bytes) / s.params.nodeLinkBW(int(nodeID))
	r.busy = true
	s.at(t+occ, evNodeUpDone, nodeID, it.id)
}

func (s *sim) tryNodeDown(nodeID int32, t float64) {
	r := &s.nodeDown[nodeID]
	if r.busy || r.queue.len() == 0 {
		return
	}
	it := r.queue.pop()
	occ := float64(s.nodes[it.id].bytes) / s.params.nodeLinkBW(int(nodeID))
	r.busy = true
	s.at(t+occ, evNodeDownDone, nodeID, it.id)
}

func (s *sim) tryRecv(rank int32, t float64) {
	r := &s.recv[rank]
	if r.busy || r.queue.len() == 0 {
		return
	}
	it := r.queue.pop()
	eject := s.params.RecvOverhead + float64(s.nodes[it.id].bytes)/s.params.PortBW
	r.busy = true
	s.res.RecvBusy[rank] += eject
	s.at(t+eject, evRecvDone, rank, it.id)
}

func (s *sim) handle(ev event) {
	t := ev.t
	switch ev.kind {
	case evCPUDone:
		s.cpu[ev.res].busy = false
		s.complete(ev.id, t)
		s.tryCPU(ev.res, t)
	case evSendDone:
		s.send[ev.res].busy = false
		s.trySend(ev.res, t)
		n := &s.nodes[ev.id]
		src, dst := int(n.rank), int(n.dst)
		if s.params.node(src) == s.params.node(dst) {
			// Intra-node: a memory copy, no shared NIC involved.
			arrive := t + s.params.IntraLatency + float64(n.bytes)/s.params.IntraBW
			s.at(arrive, evEnqueueRecv, n.dst, ev.id)
			return
		}
		up := int32(s.params.node(src))
		s.nodeUp[up].queue.push(prioItem{seq: s.nextSeq(), id: ev.id})
		s.tryNodeUp(up, t)
	case evNodeUpDone:
		s.nodeUp[ev.res].busy = false
		s.tryNodeUp(ev.res, t)
		n := &s.nodes[ev.id]
		src, dst := int(n.rank), int(n.dst)
		arrive := t + s.params.latency(src, dst) + float64(n.bytes)/s.params.linkBW(src, dst)
		s.at(arrive, evEnqueueNodeDown, int32(s.params.node(dst)), ev.id)
	case evEnqueueNodeDown:
		s.nodeDown[ev.res].queue.push(prioItem{seq: s.nextSeq(), id: ev.id})
		s.tryNodeDown(ev.res, t)
	case evNodeDownDone:
		s.nodeDown[ev.res].busy = false
		s.tryNodeDown(ev.res, t)
		s.at(t, evEnqueueRecv, s.nodes[ev.id].dst, ev.id)
	case evEnqueueRecv:
		s.recv[ev.res].queue.push(prioItem{seq: s.nextSeq(), id: ev.id})
		s.tryRecv(ev.res, t)
	case evRecvDone:
		s.recv[ev.res].busy = false
		s.complete(ev.id, t)
		s.tryRecv(ev.res, t)
	}
}
