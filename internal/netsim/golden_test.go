package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

// TestBuildDAGGolden pins the task graph and the simulated run, bit for bit,
// on symmetric and general plans of two problems: the node and edge counts,
// the makespan, the summed per-rank compute, send-port and receive-port busy
// seconds, and the message and byte totals. The order in which a completing
// node readies its successors feeds the event heap's tie-break, so a
// restructuring of BuildDAG or of the simulator that reorders it moves these
// numbers. The first four rows
// put all 16 ranks on one node; the others spread the ranks over 2–4 nodes
// (ranksPerNode sets the plan's packing and the cost model's alike), so the
// node links and the inter-node jitter are exercised, under every scheme the
// scaling figures compare and a second placement seed. The first four rows
// were recorded at f61b837, before buildDAG's per-side rewrite; their
// symmetric makespans were re-recorded once, when symmetric plans began to
// ship packed diagonal triangles and charge 2w³/3 per diagonal inverse. The
// other rows and every busy sum were recorded at e55bb27, before the
// simulator's array rewrite. The node and edge counts were re-recorded
// once, when BuildDAG began to walk the compiled programs (core.Compile): a
// start node, the one node without a predecessor, now feeds the barrier and
// one virtual node per pass-1 diagonal broadcast root, which holds the root's
// own factor, where the old walk left the root's sends and solves without a
// predecessor; every other field stayed bit for bit.
// The three fingerprints — a hash of the sorted
// compute and message nodes, the longest dependency path in compute flops and
// in inter-rank messages — depend on neither node numbering nor edge order,
// so they pin what the DAG models apart from how it is laid out; they were
// recorded at 42a4f7a.
func TestBuildDAGGolden(t *testing.T) {
	pattern := func(g *sparse.Generated, relax, maxWidth int) *etree.BlockPattern {
		perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
		return etree.Analyze(g.A.Permute(perm), perm, etree.Options{Relax: relax, MaxWidth: maxWidth}).BP
	}
	obs := pattern(sparse.Grid2D(16, 16, 1), 2, 8) // the observability tests' matrix
	dg := pattern(sparse.DG2D(16, 16, 4, 1), 4, 48)
	type want struct {
		nodes, edges                  int
		makespan, compute, send, recv uint64 // float64 bits
		msgs, bytes                   int64
		nodeHash                      uint64
		flopPath                      int64
		msgPath                       int
	}
	for _, c := range []struct {
		name         string
		bp           *etree.BlockPattern
		pr, pc       int
		scheme       core.Scheme
		symmetric    bool
		ranksPerNode int
		seed         uint64 // placement seed
		want         want
	}{
		{"grid2d16/symmetric", obs, 4, 4, core.ShiftedBinaryTree, true, 24, 1, want{7109, 10043, 0x3f2a9080ea6bdc1a, 0x3f06b28dcb1e0fd0, 0x3f5f274489ea1b86, 0x3f56825a5a35f8db, 2638, 219408, 0x71dde85fec6be5e6, 12624, 27}},
		{"grid2d16/general", obs, 4, 4, core.ShiftedBinaryTree, false, 24, 1, want{11833, 17805, 0x3f35ab6213d26210, 0x3f152733bf82deda, 0x3f6a74f2009f1d6f, 0x3f632069e90e0733, 4474, 391168, 0x974e45b886d399fb, 16688, 27}},
		{"dg2d16b4/symmetric", dg, 4, 4, core.ShiftedBinaryTree, true, 24, 1, want{8258, 11695, 0x3f52545c5ee1c8f7, 0x3f6b73941df00531, 0x3f686d04f746da1b, 0x3f637c046e8ade53, 3016, 3481888, 0xdf7e6387249f272d, 1124390, 25}},
		{"dg2d16b4/general", dg, 4, 4, core.ShiftedBinaryTree, false, 24, 1, want{13689, 20689, 0x3f6007c2be975a0d, 0x3f79f6c8b5153f0f, 0x3f74de862a1d8242, 0x3f70b48aae10c160, 5083, 6147712, 0xb6e98894b2ec0d04, 1485952, 24}},
		{"grid2d16/symmetric/flat/6x8", obs, 6, 8, core.FlatTree, true, 24, 1, want{7940, 10911, 0x3f22736ba6bca04a, 0x3f06b28dcb1e0fcd, 0x3f6309902a37bf95, 0x3f5b8451193368f3, 3222, 273984, 0x14cf7c31bef37ba4, 12624, 21}},
		{"grid2d16/general/binary/8x8", obs, 8, 8, core.BinaryTree, false, 24, 1, want{13711, 19827, 0x3f305e5cf3121f70, 0x3f152733bf82deda, 0x3f713e1e7c4a86eb, 0x3f68ee1ebd40a3f4, 5832, 508928, 0x1a39b94b758194ba, 16688, 26}},
		{"grid2d16/symmetric/shifted/6x8/seed2", obs, 6, 8, core.ShiftedBinaryTree, true, 24, 2, want{7940, 10911, 0x3f22a0431995e472, 0x3f06b28dcb1e0fcf, 0x3f6309902a37bf94, 0x3f5b8451193368f7, 3222, 273984, 0x10d8998d01f477a0, 12624, 30}},
		{"dg2d16b4/symmetric/toposhifted/4x4/rpn4", dg, 4, 4, core.TopoShiftedTree, true, 4, 1, want{8258, 11695, 0x3f5318f63ce321a8, 0x3f6b73941df00530, 0x3f686d04f746da1e, 0x3f637c046e8ade52, 3016, 3481888, 0x2d0af3ada6594a9, 1124390, 24}},
		{"dg2d16b4/general/toposhifted/6x6/rpn8", dg, 6, 6, core.TopoShiftedTree, false, 8, 1, want{14987, 22093, 0x3f5b99e5dc21b168, 0x3f79f6c8b5153f05, 0x3f784f91269d3c81, 0x3f73632dbb93d929, 6010, 6913024, 0xba45844ad19a29a0, 1485952, 24}},
		{"dg2d16b4/symmetric/flat/4x4/rpn4/seed7", dg, 4, 4, core.FlatTree, true, 4, 7, want{8258, 11695, 0x3f53245c9b87ae6f, 0x3f6b73941df00530, 0x3f686d04f746da1c, 0x3f637c046e8ade53, 3016, 3481888, 0x6e497e3e9aae71df, 1124390, 23}},
		{"dg2d16b4/general/binary/6x6/rpn8/seed7", dg, 6, 6, core.BinaryTree, false, 8, 7, want{14987, 22093, 0x3f5b9e4110ef7e09, 0x3f79f6c8b5153f05, 0x3f784f91269d3c82, 0x3f73632dbb93d929, 6010, 6913024, 0x71cf551d1e67817, 1485952, 24}},
	} {
		plan := core.NewPlanConfig(c.bp, procgrid.New(c.pr, c.pc), core.PlanConfig{Scheme: c.scheme, Seed: 1,
			Symmetric: c.symmetric, Topo: core.Topology{CoresPerNode: c.ranksPerNode}})
		params := DefaultParams()
		params.CoresPerNode, params.Seed = c.ranksPerNode, c.seed
		dag := BuildDAG(plan)
		res := SimulateDAG(dag, params)
		sum := func(xs []float64) uint64 {
			s := 0.0
			for _, x := range xs {
				s += x
			}
			return math.Float64bits(s)
		}
		hash, flopPath, msgPath := fingerprint(dag)
		got := want{len(dag.nodes), len(dag.succ), math.Float64bits(res.Makespan),
			sum(res.ComputeTime), sum(res.SendBusy), sum(res.RecvBusy), res.MsgCount, res.BytesMoved,
			hash, flopPath, msgPath}
		if got != c.want {
			t.Errorf("%s:\n got  %#v\n want %#v", c.name, got, c.want)
		}
	}
}

// fingerprint summarizes what a DAG models independently of how it is laid
// out: an FNV-1a hash of its compute and message nodes' (kind, rank, dst,
// cost, prio) tuples in sorted order, and the longest dependency path weighted
// by compute flops and by inter-rank messages.
func fingerprint(d *DAG) (hash uint64, flopPath int64, msgPath int) {
	var tuples []node
	for _, n := range d.nodes {
		if n.kind != kVirtual {
			tuples = append(tuples, n)
		}
	}
	slices.SortFunc(tuples, func(a, b node) int {
		for _, c := range [...]int64{int64(a.kind) - int64(b.kind), int64(a.rank) - int64(b.rank),
			int64(a.dst) - int64(b.dst), a.cost - b.cost, int64(a.prio) - int64(b.prio)} {
			if c != 0 {
				return int(c>>63 | 1)
			}
		}
		return 0
	})
	h := fnv.New64a()
	for _, n := range tuples {
		var buf [21]byte
		buf[0] = byte(n.kind)
		binary.LittleEndian.PutUint32(buf[1:], uint32(n.rank))
		binary.LittleEndian.PutUint32(buf[5:], uint32(n.dst))
		binary.LittleEndian.PutUint64(buf[9:], uint64(n.cost))
		binary.LittleEndian.PutUint32(buf[17:], uint32(n.prio))
		h.Write(buf[:])
	}
	// Longest paths ending at each node, in a topological order (Kahn's).
	deps := slices.Clone(d.deps)
	flops, msgs := make([]int64, len(d.nodes)), make([]int, len(d.nodes))
	var queue []int32
	for id, n := range deps {
		if n == 0 {
			queue = append(queue, int32(id))
		}
	}
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		n := &d.nodes[id]
		if n.kind == kCompute {
			flops[id] += n.cost
		}
		if n.kind == kMsg && n.rank != n.dst {
			msgs[id]++
		}
		flopPath, msgPath = max(flopPath, flops[id]), max(msgPath, msgs[id])
		for _, to := range d.succ[d.first[id]:d.first[id+1]] {
			flops[to], msgs[to] = max(flops[to], flops[id]), max(msgs[to], msgs[id])
			if deps[to]--; deps[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	return h.Sum64(), flopPath, msgPath
}
