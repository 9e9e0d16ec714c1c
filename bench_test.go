package pselinv

// Benchmarks regenerating each experiment of the paper's evaluation
// section. Each benchmark runs a scaled-down configuration of the
// corresponding experiment so that `go test -bench=.` completes in
// minutes; the cmd/commvol and cmd/scaling tools run the full-scale
// versions and print the tables/figures themselves.
//
//	BenchmarkTableI_*    — Col-Bcast sent-volume measurement per scheme
//	BenchmarkTableII_*   — Row-Reduce received-volume suite (two matrices)
//	BenchmarkFig4        — volume histogram construction
//	BenchmarkFig5        — heat-map rendering from measured volumes
//	BenchmarkFig6        — small-grid Flat-Tree imbalance measurement
//	BenchmarkFig7        — Row-Reduce heat maps
//	BenchmarkFig8_*      — strong-scaling simulation per scheme
//	BenchmarkFig9        — computation/communication breakdown
//	BenchmarkHybrid      — §IV-B hybrid-scheme ablation
//	BenchmarkRandomPerm  — rejected fully-random-permutation ablation

import (
	"bytes"
	"testing"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/exp"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
	"pselinv/internal/stats"
)

// benchPipeline caches the prepared problem across benchmarks.
var benchPipelines = map[string]*exp.Pipeline{}

func pipelineFor(b *testing.B, name string) *exp.Pipeline {
	b.Helper()
	if p, ok := benchPipelines[name]; ok {
		return p
	}
	var gen *sparse.Generated
	switch name {
	case "audikw":
		gen = sparse.FE3D(9, 9, 9, 3, 1) // bench-sized audikw stand-in
	case "dg":
		gen = sparse.DG2DRadius(16, 16, 8, 2, 2) // bench-sized DG stand-in
	default:
		b.Fatalf("unknown pipeline %q", name)
	}
	p, err := exp.Prepare(gen, exp.DefaultRelax, exp.DefaultMaxWidth)
	if err != nil {
		b.Fatal(err)
	}
	benchPipelines[name] = p
	return p
}

func benchVolume(b *testing.B, scheme core.Scheme) *exp.VolumeMeasurement {
	b.Helper()
	p := pipelineFor(b, "audikw")
	grid := procgrid.New(12, 12)
	var last *exp.VolumeMeasurement
	for i := 0; i < b.N; i++ {
		ms, err := exp.MeasureVolumes(p, grid, []core.Scheme{scheme}, uint64(i), 5*time.Minute, exp.RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		last = ms[0]
	}
	s := last.ColBcastSummary()
	b.ReportMetric(s.Max, "maxMB")
	b.ReportMetric(s.Std, "stdMB")
	return last
}

func BenchmarkTableI_FlatTree(b *testing.B)    { benchVolume(b, core.FlatTree) }
func BenchmarkTableI_BinaryTree(b *testing.B)  { benchVolume(b, core.BinaryTree) }
func BenchmarkTableI_ShiftedTree(b *testing.B) { benchVolume(b, core.ShiftedBinaryTree) }

func BenchmarkTableII_RowReduceSuite(b *testing.B) {
	grid := procgrid.New(12, 12)
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"dg", "audikw"} {
			p := pipelineFor(b, name)
			ms, err := exp.MeasureVolumes(p, grid, core.Schemes(), uint64(i), 5*time.Minute, exp.RunOpts{})
			if err != nil {
				b.Fatal(err)
			}
			// The paper's Table II reports the Row-Reduce receive summary.
			for _, m := range ms {
				_ = m.RowReduceSummary()
			}
		}
	}
}

func BenchmarkFig4_Histograms(b *testing.B) {
	m := benchVolumeOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, vec := range [][]float64{m.ColBcastSent, m.RowReduceRecv} {
			h := stats.NewHistogram(vec, 12)
			_ = h.Render(50)
		}
	}
}

func benchVolumeOnce(b *testing.B) *exp.VolumeMeasurement {
	b.Helper()
	p := pipelineFor(b, "audikw")
	ms, err := exp.MeasureVolumes(p, procgrid.New(12, 12), []core.Scheme{core.ShiftedBinaryTree}, 1, 5*time.Minute, exp.RunOpts{})
	if err != nil {
		b.Fatal(err)
	}
	return ms[0]
}

func BenchmarkFig5_HeatMaps(b *testing.B) {
	m := benchVolumeOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hm := stats.NewHeatMap(12, 12, m.ColBcastSent)
		_ = hm.Render()
		_ = hm.CSV()
	}
}

func BenchmarkFig6_SmallGridImbalance(b *testing.B) {
	p := pipelineFor(b, "audikw")
	for i := 0; i < b.N; i++ {
		ms, err := exp.MeasureVolumes(p, procgrid.New(6, 6), []core.Scheme{core.FlatTree}, uint64(i), 5*time.Minute, exp.RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		s := ms[0].ColBcastSummary()
		b.ReportMetric(100*s.Std/s.Mean, "std%ofMean")
	}
}

func BenchmarkFig7_RowReduceHeatMaps(b *testing.B) {
	p := pipelineFor(b, "audikw")
	for i := 0; i < b.N; i++ {
		ms, err := exp.MeasureVolumes(p, procgrid.New(12, 12),
			[]core.Scheme{core.FlatTree, core.ShiftedBinaryTree}, uint64(i), 5*time.Minute, exp.RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range ms {
			_ = stats.NewHeatMap(12, 12, m.RowReduceRecv).Render()
		}
	}
}

func benchScaling(b *testing.B, scheme core.Scheme) {
	b.Helper()
	p := pipelineFor(b, "dg")
	params := exp.ScaledEdisonParams()
	for i := 0; i < b.N; i++ {
		pts := exp.MeasureScaling(p, []int{64, 576}, []core.Scheme{scheme},
			[]uint64{1, 2}, params)
		b.ReportMetric(pts[len(pts)-1].Mean, "simSec@576")
	}
}

func BenchmarkFig8_FlatTree(b *testing.B)    { benchScaling(b, core.FlatTree) }
func BenchmarkFig8_BinaryTree(b *testing.B)  { benchScaling(b, core.BinaryTree) }
func BenchmarkFig8_ShiftedTree(b *testing.B) { benchScaling(b, core.ShiftedBinaryTree) }

func BenchmarkFig9_Breakdown(b *testing.B) {
	p := pipelineFor(b, "dg")
	params := exp.ScaledEdisonParams()
	for i := 0; i < b.N; i++ {
		for _, scheme := range []core.Scheme{core.FlatTree, core.ShiftedBinaryTree} {
			pts := exp.MeasureScaling(p, []int{256}, []core.Scheme{scheme}, []uint64{1}, params)
			b.ReportMetric(pts[0].Comm/pts[0].Compute, "commOverComp")
		}
	}
}

func BenchmarkHybrid_Ablation(b *testing.B) {
	p := pipelineFor(b, "dg")
	params := exp.ScaledEdisonParams()
	for i := 0; i < b.N; i++ {
		pts := exp.MeasureScaling(p, []int{576},
			[]core.Scheme{core.Hybrid}, []uint64{1, 2}, params)
		b.ReportMetric(pts[0].Mean, "simSec")
	}
}

func BenchmarkRandomPerm_Ablation(b *testing.B) {
	p := pipelineFor(b, "dg")
	params := exp.ScaledEdisonParams()
	for i := 0; i < b.N; i++ {
		pts := exp.MeasureScaling(p, []int{576},
			[]core.Scheme{core.RandomPermTree}, []uint64{1, 2}, params)
		b.ReportMetric(pts[0].Mean, "simSec")
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
// invert on 16 ranks, read the diagonal, release.
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
	return nil
}

// BenchmarkWarmRefactorize gates the per-matrix cost of the warm loop:
// the sparse front end, the numeric factorization and the engine run.
func BenchmarkWarmRefactorize(b *testing.B) {
	m := DG2D(24, 24, 4, 1)
	sym, err := AnalyzePattern(m, Options{})
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
