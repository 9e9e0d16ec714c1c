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
// predecessor; every other field stayed bit for bit. Every row was
// re-recorded once more when the blocks of a supernode whose broadcasts share
// a tree and a cross-send sender, or whose point sends share their ends, began
// to travel as one message: msgs fell, bytes and flopPath stayed bit for bit.
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
		{"grid2d16/symmetric", obs, 4, 4, core.ShiftedBinaryTree, true, 24, 1, want{7488, 10476, 0x3f2a10de85c30935, 0x3f06b28dcb1e0fd1, 0x3f5e3c62ff202888, 0x3f55da94adeedd94, 2558, 219408, 0x426e5fe9147ad6d1, 12624, 27}},
		{"grid2d16/general", obs, 4, 4, core.ShiftedBinaryTree, false, 24, 1, want{12466, 18554, 0x3f355401e343ac86, 0x3f152733bf82deda, 0x3f697b625d288b43, 0x3f626e27e2027a39, 4304, 391168, 0x224b16fee029f85d, 16688, 27}},
		{"dg2d16b4/symmetric", dg, 4, 4, core.ShiftedBinaryTree, true, 24, 1, want{8687, 12216, 0x3f522d624d77e40d, 0x3f6b73941df00531, 0x3f67a6d6aa2c7517, 0x3f62ee75a52edf4e, 2881, 3481888, 0xae8634cf9d39e3d7, 1124390, 25}},
		{"dg2d16b4/general", dg, 4, 4, core.ShiftedBinaryTree, false, 24, 1, want{14411, 21590, 0x3f5f8d9943230e68, 0x3f79f6c8b5153f0f, 0x3f741e371a14f682, 0x3f702b2da29cefd7, 4821, 6147712, 0x637d8eab6ccc9fc6, 1485952, 24}},
		{"grid2d16/symmetric/flat/6x8", obs, 6, 8, core.FlatTree, true, 24, 1, want{8291, 11264, 0x3f22ef5b65623fc4, 0x3f06b28dcb1e0fcd, 0x3f630528bc6a5ca0, 0x3f5b7e067c5724ba, 3219, 273984, 0xb8a54c775f88efe7, 12624, 21}},
		{"grid2d16/general/binary/8x8", obs, 8, 8, core.BinaryTree, false, 24, 1, want{14359, 20601, 0x3f2fce0678677b7b, 0x3f152733bf82deda, 0x3f70c156aa8f3dd5, 0x3f683bdcb63516f7, 5662, 508928, 0xa65222a737b0b5f2, 16688, 26}},
		{"grid2d16/symmetric/shifted/6x8/seed2", obs, 6, 8, core.ShiftedBinaryTree, true, 24, 2, want{8291, 11264, 0x3f22a0431995e472, 0x3f06b28dcb1e0fcf, 0x3f630528bc6a5ca1, 0x3f5b7e067c5724bd, 3219, 273984, 0x10d8b1021d996825, 12624, 30}},
		{"dg2d16b4/symmetric/toposhifted/4x4/rpn4", dg, 4, 4, core.TopoShiftedTree, true, 4, 1, want{8648, 12269, 0x3f52a40808a572ed, 0x3f6b73941df00530, 0x3f66e97738acd5fc, 0x3f62673178af2483, 2752, 3481888, 0x84cf611b2d039a5e, 1124390, 24}},
		{"dg2d16b4/general/toposhifted/6x6/rpn8", dg, 6, 6, core.TopoShiftedTree, false, 8, 1, want{15733, 22998, 0x3f5b56a9bb19d6a2, 0x3f79f6c8b5153f05, 0x3f77a6032339dab5, 0x3f72ea117003b7dd, 5779, 6913024, 0x3e57208526266eeb, 1485952, 24}},
		{"dg2d16b4/symmetric/flat/4x4/rpn4/seed7", dg, 4, 4, core.FlatTree, true, 4, 7, want{8648, 12269, 0x3f52a270617c08bc, 0x3f6b73941df00530, 0x3f66e97738acd5f9, 0x3f62673178af2483, 2752, 3481888, 0xb3947b5fbcacd9f4, 1124390, 23}},
		{"dg2d16b4/general/binary/6x6/rpn8/seed7", dg, 6, 6, core.BinaryTree, false, 8, 7, want{15707, 23041, 0x3f5b57b1f071d88c, 0x3f79f6c8b5153f04, 0x3f7760482e05e68f, 0x3f72b842c0de9bc6, 5684, 6913024, 0x4a888374aad7f426, 1485952, 24}},
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
