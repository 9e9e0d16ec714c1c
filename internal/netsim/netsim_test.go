package netsim

import (
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

// densePattern builds an artificial fully dense block pattern with m+1
// supernodes of width w: every collective then spans as many ranks as the
// grid allows, which maximizes the flat-vs-binary contrast.
func densePattern(m, w int) *etree.BlockPattern {
	starts := make([]int, m+2)
	for i := range starts {
		starts[i] = i * w
	}
	var blocks [][2]int
	for k := 0; k <= m; k++ {
		for i := k + 1; i <= m; i++ {
			blocks = append(blocks, [2]int{i, k})
		}
	}
	return blockPattern(starts, blocks)
}

// blockPattern is the block pattern of a matrix over the supernode partition
// starts whose off-diagonal blocks are blocks (i > k, each with its mirror).
func blockPattern(starts []int, blocks [][2]int) *etree.BlockPattern {
	n := starts[len(starts)-1]
	var ts []sparse.Triplet
	for j := range n {
		ts = append(ts, sparse.Triplet{Row: j, Col: j, Val: 1})
	}
	for _, b := range blocks {
		i, k := starts[b[0]], starts[b[1]]
		ts = append(ts, sparse.Triplet{Row: i, Col: k, Val: 1}, sparse.Triplet{Row: k, Col: i, Val: 1})
	}
	return etree.NewBlockPattern(sparse.FromTriplets(n, ts), etree.FromStarts(starts, n))
}

func realPattern(t testing.TB) *etree.BlockPattern {
	t.Helper()
	g := sparse.Grid2D(12, 12, 1)
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	an := etree.Analyze(g.A.Permute(perm), perm, etree.Options{Relax: 2, MaxWidth: 8})
	return an.BP
}

func TestSimulateCompletesAndPositive(t *testing.T) {
	bp := realPattern(t)
	for _, scheme := range core.Schemes() {
		plan := core.NewPlan(bp, procgrid.New(4, 4), scheme, 1)
		res := simulate(plan, DefaultParams())
		if res.Makespan <= 0 {
			t.Fatalf("%v: non-positive makespan", scheme)
		}
		if res.MsgCount <= 0 || res.BytesMoved <= 0 {
			t.Fatalf("%v: no traffic simulated", scheme)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	bp := realPattern(t)
	plan := core.NewPlan(bp, procgrid.New(4, 4), core.ShiftedBinaryTree, 3)
	p := DefaultParams()
	a := simulate(plan, p).Makespan
	b := simulate(plan, p).Makespan
	if a != b {
		t.Fatalf("non-deterministic: %g vs %g", a, b)
	}
}

func TestSimulateSeedJitterChangesTime(t *testing.T) {
	bp := realPattern(t)
	plan := core.NewPlan(bp, procgrid.New(6, 6), core.FlatTree, 1)
	p := DefaultParams()
	p.CoresPerNode = 4 // several nodes even at 36 ranks
	seen := map[float64]bool{}
	for seed := uint64(1); seed <= 5; seed++ {
		p.Seed = seed
		seen[simulate(plan, p).Makespan] = true
	}
	if len(seen) < 3 {
		t.Fatalf("placement jitter had no effect: %v", seen)
	}
}

func TestFlatRootSerializationHurts(t *testing.T) {
	// Dense block pattern on a tall grid: every Col-Bcast spans up to 48
	// ranks. The flat root injects p-1 messages serially; the binary tree
	// pipelines in log p — the central claim of §III.
	bp := densePattern(47, 8)
	grid := procgrid.New(48, 1)
	p := DefaultParams()
	p.CoresPerNode = 8
	flat := simulate(core.NewPlan(bp, grid, core.FlatTree, 1), p).Makespan
	shifted := simulate(core.NewPlan(bp, grid, core.ShiftedBinaryTree, 1), p).Makespan
	if shifted >= flat {
		t.Fatalf("shifted (%g s) not faster than flat (%g s) on wide collectives", shifted, flat)
	}
}

func TestShiftedBeatsPlainBinaryUnderConcurrency(t *testing.T) {
	// With many concurrent broadcasts over the same group, the plain
	// binary tree loads the same internal ranks every time (§III); the
	// shifted variant spreads forwarding. Expect shifted <= binary with
	// some tolerance.
	bp := densePattern(63, 8)
	grid := procgrid.New(32, 2)
	p := DefaultParams()
	p.CoresPerNode = 8
	binary := simulate(core.NewPlan(bp, grid, core.BinaryTree, 1), p).Makespan
	shifted := simulate(core.NewPlan(bp, grid, core.ShiftedBinaryTree, 1), p).Makespan
	if shifted > binary*1.1 {
		t.Fatalf("shifted (%g) materially slower than plain binary (%g)", shifted, binary)
	}
}

func TestMoreRanksHelpWhenComputeBound(t *testing.T) {
	bp := realPattern(t)
	p := DefaultParams()
	p.FlopRate = 2e7 // force compute-dominated execution
	t4 := simulate(core.NewPlan(bp, procgrid.New(2, 2), core.ShiftedBinaryTree, 1), p).Makespan
	t16 := simulate(core.NewPlan(bp, procgrid.New(4, 4), core.ShiftedBinaryTree, 1), p).Makespan
	if t16 >= t4 {
		t.Fatalf("no strong scaling when compute bound: P=4 %g, P=16 %g", t4, t16)
	}
}

func TestComputeTimeIndependentOfNetwork(t *testing.T) {
	// Total CPU-busy time is a property of the workload, not the network.
	bp := realPattern(t)
	p1 := DefaultParams()
	p2 := DefaultParams()
	p2.InterBW /= 10
	p2.InterLatency *= 10
	sum := func(res *Result) float64 {
		s := 0.0
		for _, c := range res.ComputeTime {
			s += c
		}
		return s
	}
	plan := core.NewPlan(bp, procgrid.New(3, 3), core.BinaryTree, 1)
	a := sum(simulate(plan, p1))
	b := sum(simulate(plan, p2))
	if a != b {
		t.Fatalf("compute time changed with network params: %g vs %g", a, b)
	}
	if a <= 0 {
		t.Fatal("no compute time recorded")
	}
}

func TestSlowerNetworkSlowerRun(t *testing.T) {
	bp := realPattern(t)
	plan := core.NewPlan(bp, procgrid.New(4, 4), core.ShiftedBinaryTree, 1)
	fast := DefaultParams()
	slow := DefaultParams()
	slow.InterBW /= 20
	slow.PortBW /= 20
	slow.InterLatency *= 20
	if simulate(plan, slow).Makespan <= simulate(plan, fast).Makespan {
		t.Fatal("slower network did not increase makespan")
	}
}

func TestCommTimeBreakdown(t *testing.T) {
	bp := realPattern(t)
	plan := core.NewPlan(bp, procgrid.New(4, 4), core.FlatTree, 1)
	res := simulate(plan, DefaultParams())
	if res.MeanCompute() <= 0 {
		t.Fatal("mean compute not positive")
	}
	if res.CommTime() < 0 || res.MeanCompute()+res.CommTime() > res.Makespan*1.0001 {
		t.Fatalf("breakdown inconsistent: comp %g comm %g makespan %g",
			res.MeanCompute(), res.CommTime(), res.Makespan)
	}
}

func TestSingleRankNoTraffic(t *testing.T) {
	bp := realPattern(t)
	plan := core.NewPlan(bp, procgrid.New(1, 1), core.ShiftedBinaryTree, 1)
	res := simulate(plan, DefaultParams())
	if res.MsgCount != 0 {
		t.Fatalf("single rank sent %d messages", res.MsgCount)
	}
	if res.Makespan <= 0 {
		t.Fatal("no work simulated")
	}
}

func BenchmarkSimulateGrid12P64(b *testing.B) {
	bp := realPattern(b)
	plan := core.NewPlan(bp, procgrid.New(8, 8), core.ShiftedBinaryTree, 1)
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulate(plan, p)
	}
}

func TestSimulateSingleSupernodeMatrix(t *testing.T) {
	// Regression: a DAG whose barrier has no incoming edges (every
	// supernode is a leaf) used to double-ready cascaded nodes during the
	// initial scan, causing a dependency underflow.
	bp := blockPattern([]int{0, 5}, nil)
	for _, grid := range []*procgrid.Grid{procgrid.New(1, 1), procgrid.New(4, 4)} {
		plan := core.NewPlan(bp, grid, core.ShiftedBinaryTree, 1)
		res := simulate(plan, DefaultParams())
		if res.Makespan <= 0 {
			t.Fatalf("grid %v: degenerate makespan", grid)
		}
	}
}

func TestSimulateAllLeavesMatrix(t *testing.T) {
	// Several independent leaf supernodes (block-diagonal matrix).
	bp := blockPattern([]int{0, 3, 6, 9, 12}, nil)
	plan := core.NewPlan(bp, procgrid.New(2, 3), core.FlatTree, 1)
	res := simulate(plan, DefaultParams())
	if res.MsgCount != 0 {
		t.Fatalf("leaf-only plan sent %d messages", res.MsgCount)
	}
	if res.Makespan <= 0 {
		t.Fatal("no compute simulated")
	}
}

func TestScaledRegimeShiftedBeatsFlatAtScale(t *testing.T) {
	// The calibrated scaling regime (see internal/exp): on a pattern with
	// wide collectives and a congested endpoint network, the shifted
	// binary tree must beat the flat tree at scale — the paper's headline.
	bp := densePattern(63, 16)
	grid := procgrid.New(64, 2)
	p := DefaultParams()
	p.PortBW = 1e9
	p.NodeBW = 1e9
	p.CoresPerNode = 8
	flat := simulate(core.NewPlan(bp, grid, core.FlatTree, 1), p).Makespan
	shifted := simulate(core.NewPlan(bp, grid, core.ShiftedBinaryTree, 1), p).Makespan
	if shifted >= flat {
		t.Fatalf("shifted (%g) not faster than flat (%g) in the calibrated regime", shifted, flat)
	}
}

// simulate builds the plan's DAG and replays it once.
func simulate(plan *core.Plan, params Params) *Result {
	return SimulateDAG(BuildDAG(plan), params)
}
