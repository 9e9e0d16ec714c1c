package exp

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/factor"
	"pselinv/internal/netsim"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

// TestMeasureVolumesSmall: the table path needs no factorization — a
// symbolic-only pipeline yields one full-length vector per scheme with
// traffic in both of the paper's classes.
func TestMeasureVolumesSmall(t *testing.T) {
	p := PrepareSymbolic(sparse.Grid2D(10, 10, 1), 2, 16)
	ms := PlanVolumes(p, procgrid.New(4, 4), core.Schemes(), core.PlanConfig{Seed: 1})
	if len(ms) != 3 {
		t.Fatalf("got %d measurements", len(ms))
	}
	for _, m := range ms {
		if len(m.ColBcastSent) != 16 || len(m.RowReduceRecv) != 16 || len(m.TotalSent) != 16 {
			t.Fatalf("%v: wrong vector lengths", m.Scheme)
		}
		if m.ColBcastSummary().Max <= 0 {
			t.Fatalf("%v: no Col-Bcast traffic", m.Scheme)
		}
		if m.RowReduceSummary().Max <= 0 {
			t.Fatalf("%v: no Row-Reduce traffic", m.Scheme)
		}
	}
}

func TestMeasureScalingShapes(t *testing.T) {
	p, err := Prepare(sparse.Grid2D(10, 10, 2), 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	pts := MeasureScaling(p, []int{4, 16}, core.Schemes(), []uint64{1, 2, 3}, netsim.DefaultParams())
	if len(pts) != 6 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, pt := range pts {
		if len(pt.Times) != 3 || pt.Mean <= 0 {
			t.Fatalf("bad point %+v", pt)
		}
		if pt.Compute < 0 || pt.Comm < 0 {
			t.Fatalf("negative breakdown %+v", pt)
		}
	}
}

func TestSelInvFlopsPositive(t *testing.T) {
	p, err := Prepare(sparse.Grid2D(8, 8, 3), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if SelInvFlops(p) <= 0 {
		t.Fatal("no flops counted")
	}
}

func TestPrepareFailsOnSingular(t *testing.T) {
	ts := []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1},
	}
	g := &sparse.Generated{A: sparse.FromTriplets(2, ts), Name: "singular"}
	if _, err := Prepare(g, 0, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestScalingStandins(t *testing.T) {
	for _, fn := range []func(int64) (*sparse.Generated, int, int){
		ScalingPNFStandin, ScalingAudikwStandin,
	} {
		g, relax, mw := fn(1)
		if relax <= 0 || mw <= 0 {
			t.Fatalf("%s: degenerate analysis options", g.Name)
		}
		if g.A.N < 10000 {
			t.Fatalf("%s: scaling stand-in too small (n=%d)", g.Name, g.A.N)
		}
		if !g.A.IsSymmetric(0) {
			t.Fatalf("%s: not symmetric", g.Name)
		}
	}
}

func TestScaledEdisonParams(t *testing.T) {
	p := ScaledEdisonParams()
	d := netsim.DefaultParams()
	if p.PortBW >= d.PortBW || p.NodeBW >= d.NodeBW {
		t.Fatal("scaled params must reduce endpoint bandwidths")
	}
	if p.FlopRate >= d.FlopRate {
		t.Fatal("scaled params must reduce the flop rate")
	}
}

// TestRefactorizeReusesAnalysis: refactorizing a same-pattern,
// different-valued matrix against a pipeline's analysis — its values scattered
// from their own order through the analysis's PermTotal — reproduces the full
// pipeline's factorization of it, which Prepare assembles from the permuted
// copy; a matrix of another pattern has no map on the analysis.
func TestRefactorizeReusesAnalysis(t *testing.T) {
	p, err := Prepare(sparse.Grid2D(10, 10, 1), 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	gen2 := sparse.Grid2D(10, 10, 42) // same stencil, different values
	sc, err := factor.NewScatter(gen2.A, p.An.PermTotal, p.An.BP)
	if err != nil {
		t.Fatal(err)
	}
	warm := factor.New(p.An.BP, dense.Real)
	if err := warm.Refactorize(gen2.A, 0, sc, 0); err != nil {
		t.Fatal(err)
	}
	cold, err := Prepare(gen2, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := warm.LogAbsDet(), cold.LU.LogAbsDet(); got != want {
		t.Fatalf("warm LogAbsDet %g differs from cold %g", got, want)
	}
	if _, err := factor.NewScatter(sparse.Grid2D(10, 11, 1).A, p.An.PermTotal, p.An.BP); err == nil {
		t.Fatal("expected pattern-mismatch error")
	}
}

// SelInvFlops estimates the selected-inversion flop count of the pipeline
// (used to report work alongside scaling results).
func SelInvFlops(p *Pipeline) int64 {
	var flops int64
	part := p.An.BP.Part
	for k := 0; k < p.An.BP.NumSnodes(); k++ {
		w := int64(part.Width(k))
		c := p.An.BP.Struct(k)
		for _, i := range c {
			for _, j := range c {
				flops += 2 * int64(part.Width(j)) * w * int64(part.Width(i))
			}
		}
	}
	return flops
}

// TestMeasureScalingFollowsPipelineAndPacking: MeasureScaling simulates the
// plan of the path the pipeline's values select, its trees built for the
// cost model's packing — here 8 ranks per node, under which the
// topology-aware scheme's trees differ from the default 24-rank packing's.
// It used to build every plan on the symmetric path with the default
// packing.
func TestMeasureScalingFollowsPipelineAndPacking(t *testing.T) {
	params := ScaledEdisonParams()
	params.CoresPerNode, params.Seed = 8, 100
	for _, symmetric := range []bool{true, false} {
		g := sparse.Grid2D(24, 24, 1)
		if !symmetric {
			sparse.Asymmetrize(g, 3, 0.5)
		}
		p := PrepareSymbolic(g, DefaultRelax, DefaultMaxWidth)
		plan := core.NewPlanConfig(p.An.BP, procgrid.Squarish(48), core.PlanConfig{
			Scheme: core.TopoShiftedTree, Seed: 1, Symmetric: symmetric,
			Topo: core.Topology{CoresPerNode: 8}})
		want := netsim.SimulateDAG(netsim.BuildDAG(plan), params).Makespan
		pt := MeasureScaling(p, []int{48}, []core.Scheme{core.TopoShiftedTree}, []uint64{params.Seed}, params)[0]
		if pt.Mean != want {
			t.Errorf("symmetric=%v: MeasureScaling makespan %g, the plan's %g", symmetric, pt.Mean, want)
		}
	}
}

// BenchmarkScalingStandinDAG sizes the simulator at the top of the
// processor axis: the PNF scaling stand-in's shifted plan at P = 2,116, the
// plan Figure 8 simulates there. Per iteration it compiles the per-rank
// programs alone (compile-s), builds the task DAG, which compiles them again
// and walks them (build-s, the compile included; build-MB allocated; live-MB,
// the heap the DAG keeps) and replays it once at placement seed 100 (sim-s).
// Run it alone, one iteration:
//
//	go test ./internal/exp -run '^$' -bench ScalingStandinDAG -benchtime 1x
func BenchmarkScalingStandinDAG(b *testing.B) {
	g, relax, mw := ScalingPNFStandin(2)
	p := PrepareSymbolic(g, relax, mw)
	params := ScaledEdisonParams()
	params.Seed = 100
	plan := simPlan(p, 2116, core.PlanConfig{}, core.ShiftedBinaryTree, params)
	var compile, build, sim time.Duration
	var alloc, live uint64
	b.ResetTimer()
	for range b.N {
		var m0, m1 runtime.MemStats
		t0 := time.Now()
		core.Compile(plan)
		compile += time.Since(t0)
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 = time.Now()
		dag := netsim.BuildDAG(plan)
		build += time.Since(t0)
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		runtime.GC()
		runtime.ReadMemStats(&m1)
		live += m1.HeapAlloc - m0.HeapAlloc
		t0 = time.Now()
		netsim.SimulateDAG(dag, params)
		sim += time.Since(t0)
	}
	n := float64(b.N)
	b.ReportMetric(compile.Seconds()/n, "compile-s")
	b.ReportMetric(build.Seconds()/n, "build-s")
	b.ReportMetric(float64(alloc)/n/1e6, "build-MB")
	b.ReportMetric(float64(live)/n/1e6, "live-MB")
	b.ReportMetric(sim.Seconds()/n, "sim-s")
}

// BenchmarkPrepareSymbolicFE3D sizes the symbolic phase — geometric nested
// dissection, then etree.Analyze — on Table I's stand-in, FE3D 28³×3
// (n = 65,856), and on FE3D 40³×3 (n = 192,000), at Relax 4 and MaxWidth 24.
// It reports the bytes allocated per op (MB/op) and the heap the pipeline
// keeps (live-MB). Run one size at a time, a few iterations:
//
//	go test ./internal/exp -run '^$' -bench 'PrepareSymbolicFE3D/28' -benchtime 3x
func BenchmarkPrepareSymbolicFE3D(b *testing.B) {
	for _, nx := range []int{28, 40} {
		b.Run(fmt.Sprint(nx), func(b *testing.B) {
			g := sparse.FE3D(nx, nx, nx, 3, 1)
			var alloc, live uint64
			b.ResetTimer()
			for range b.N {
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				p := PrepareSymbolic(g, 4, 24)
				runtime.ReadMemStats(&m1)
				alloc += m1.TotalAlloc - m0.TotalAlloc
				runtime.GC()
				runtime.ReadMemStats(&m1)
				live += m1.HeapAlloc - m0.HeapAlloc
				runtime.KeepAlive(p)
			}
			n := float64(b.N)
			b.ReportMetric(float64(alloc)/n/1e6, "MB/op")
			b.ReportMetric(float64(live)/n/1e6, "live-MB")
		})
	}
}
