package pselinv

// Benchmarks of the simulated experiments (§IV-B) and of the end-to-end
// pipeline. Each Fig8/Fig9 benchmark runs a scaled-down
// configuration of the corresponding cmd/scaling experiment. The §IV-A
// volume tables and figures have no benchmark: cmd/commvol reads them off
// the plan, and the engine runs that prove the plan are tests
// (internal/pselinv's TestMeasuredVolumesMatchPlanExactly).
//
//	BenchmarkFig8_*      — strong-scaling simulation per scheme
//	BenchmarkFig9        — computation/communication breakdown

import (
	"bytes"
	"sync"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/exp"
	"pselinv/internal/sparse"
)

// scalingPipeline is the bench-sized DG stand-in's symbolic analysis, shared
// by the simulation benchmarks.
var scalingPipeline = sync.OnceValue(func() *exp.Pipeline {
	return exp.PrepareSymbolic(sparse.DG2DRadius(16, 16, 8, 2, 2), exp.DefaultRelax, exp.DefaultMaxWidth)
})

func benchScaling(b *testing.B, scheme core.Scheme) {
	b.Helper()
	p := scalingPipeline()
	params := exp.ScaledEdisonParams()
	for i := 0; i < b.N; i++ {
		pts := exp.MeasureScaling(p, []int{64, 576}, []core.Scheme{scheme}, []uint64{1, 2}, params)
		b.ReportMetric(pts[len(pts)-1].Mean, "simSec@576")
	}
}

func BenchmarkFig8_FlatTree(b *testing.B)    { benchScaling(b, core.FlatTree) }
func BenchmarkFig8_BinaryTree(b *testing.B)  { benchScaling(b, core.BinaryTree) }
func BenchmarkFig8_ShiftedTree(b *testing.B) { benchScaling(b, core.ShiftedBinaryTree) }

func BenchmarkFig9_Breakdown(b *testing.B) {
	p := scalingPipeline()
	params := exp.ScaledEdisonParams()
	for i := 0; i < b.N; i++ {
		for _, scheme := range []core.Scheme{core.FlatTree, core.ShiftedBinaryTree} {
			pts := exp.MeasureScaling(p, []int{256}, []core.Scheme{scheme}, []uint64{1}, params)
			b.ReportMetric(pts[0].Comm/pts[0].Compute, "commOverComp")
		}
	}
}

// End-to-end pipeline benchmarks (not tied to a specific figure).

func BenchmarkEndToEndSequential(b *testing.B) {
	m := Grid2D(16, 16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(m, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.SelInv(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndParallel16(b *testing.B) {
	m := Grid2D(16, 16, 1)
	sys, err := NewSystem(m, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.ParallelSelInv(16, ShiftedBinaryTree, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

// BenchmarkEndToEndParallel16Topo is BenchmarkEndToEndParallel16 on the
// topology-aware shifted tree with an explicit 8-ranks-per-node packing
// (a 2-node hierarchy). Comparing the pair bounds the cost of the
// topology-aware tree construction; the bench gate tracks both.
func BenchmarkEndToEndParallel16Topo(b *testing.B) {
	m := Grid2D(16, 16, 1)
	sys, err := NewSystem(m, Options{CoresPerNode: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.ParallelSelInv(16, TopoShiftedTree, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

// BenchmarkEndToEndParallel16Work is BenchmarkEndToEndParallel16 under the
// greedy work balancer instead of the block-cyclic supernode→process map.
// Comparing the pair bounds the cost of the balancer's weighted assignment;
// the reported "imbalance" metric (the plan's max/mean per-rank flop factor,
// 1.0 = perfect) makes load-balance regressions fail the bench gate just
// like time regressions do.
func BenchmarkEndToEndParallel16Work(b *testing.B) {
	m := Grid2D(16, 16, 1)
	sys, err := NewSystem(m, Options{Balancer: "work"})
	if err != nil {
		b.Fatal(err)
	}
	eng := sys.sym.engineTemplate(4, 4, ShiftedBinaryTree, 0, sys.symmetric)
	flopImb, _ := core.LoadImbalance(eng.Plan.RankLoads())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.ParallelSelInv(16, ShiftedBinaryTree, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
	b.ReportMetric(flopImb, "imbalance")
}

// benchEndToEndP4 runs repeated parallel inversions of a fixed problem at
// P=4 in sequential or task-DAG mode. The pair quantifies the tentpole:
// the DAG variant overlaps each rank's supernode updates with the tree
// collectives on the kernel worker pool, so on a multi-core host it beats
// the sequential-mode run wall-clock; the bench gate tracks both.
func benchEndToEndP4(b *testing.B, dag bool) {
	b.Helper()
	m := Grid2D(24, 24, 1)
	sys, err := NewSystem(m, Options{})
	if err != nil {
		b.Fatal(err)
	}
	sys.SetDAG(dag)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.ParallelSelInv(4, ShiftedBinaryTree, 1)
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

func BenchmarkEndToEndParallel(b *testing.B) { benchEndToEndP4(b, false) }
func BenchmarkEndToEndDag(b *testing.B)      { benchEndToEndP4(b, true) }

// BenchmarkEndToEndParallel16Obs is BenchmarkEndToEndParallel16 with full
// observability installed (traffic collector + merged trace). Comparing
// the pair bounds the instrumentation overhead; the bench gate tracks
// both so an obs-path regression is caught like any other.
func BenchmarkEndToEndParallel16Obs(b *testing.B) {
	m := Grid2D(16, 16, 1)
	sys, err := NewSystem(m, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, _, err := sys.ParallelSelInvObserved(16, ShiftedBinaryTree, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

// warmRefactorize is one op of the benchmark's warm_dg2d_p16 workload (the
// PEXSI loop on a warm Symbolic): shift, factorize against the analysis,
// invert on 16 ranks, read the diagonal, release the inverse and hand the
// factor back for the next op.
func warmRefactorize(sym *Symbolic, m *Matrix, sigma float64) error {
	sh, err := m.Shifted(sigma)
	if err != nil {
		return err
	}
	sys, err := sym.Factorize(sh)
	if err != nil {
		return err
	}
	res, err := sys.ParallelSelInv(16, ShiftedBinaryTree, 1)
	if err != nil {
		return err
	}
	res.Diagonal()
	res.Release()
	sys.Release()
	return nil
}

// BenchmarkWarmRefactorize gates the per-matrix cost of the warm loop:
// the sparse front end, the numeric factorization and the engine run.
func BenchmarkWarmRefactorize(b *testing.B) { benchWarmRefactorize(b, Options{}) }

// BenchmarkWarmRefactorizeND is the same loop under the ordering users (and
// bench/'s warm_dg2d_p16 op) take: hundreds of small supernodes, not a band.
func BenchmarkWarmRefactorizeND(b *testing.B) {
	benchWarmRefactorize(b, Options{Ordering: OrderNestedDissection})
}

func benchWarmRefactorize(b *testing.B, opts Options) {
	m := DG2D(24, 24, 4, 1)
	sym, err := AnalyzePattern(m, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := warmRefactorize(sym, m, 0.5+float64(i%8)/8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdUpload is bench/'s cold_grid2d_p16 op: a MatrixMarket upload
// of Grid2D 96² parsed, ordered by nested dissection on its graph, analyzed,
// factorized, planned and inverted on 16 ranks, its diagonal read, then the
// inverse and the System released — every layer cold but the process's free
// lists (the dense arena, simmpi's inbox rings). It stays out of the bench
// gate, whose baseline rows only the CI runner class regenerates.
func BenchmarkColdUpload(b *testing.B) {
	var mm bytes.Buffer
	if err := Grid2D(96, 96, 1).WriteMatrixMarket(&mm); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := FromMatrixMarket(bytes.NewReader(mm.Bytes()), "upload")
		if err != nil {
			b.Fatal(err)
		}
		sys, err := NewSystem(m, Options{Ordering: OrderNestedDissection})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.ParallelSelInv(16, ShiftedBinaryTree, 1)
		if err != nil {
			b.Fatal(err)
		}
		res.Diagonal()
		res.Release()
		sys.Release()
	}
}

// BenchmarkReadMatrixMarket gates the parse of an uploaded matrix (the
// daemon's and the TCP workers' first step).
func BenchmarkReadMatrixMarket(b *testing.B) {
	var mm bytes.Buffer
	if err := DG2D(16, 16, 4, 1).WriteMatrixMarket(&mm); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(mm.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromMatrixMarket(bytes.NewReader(mm.Bytes()), "bench"); err != nil {
			b.Fatal(err)
		}
	}
}
