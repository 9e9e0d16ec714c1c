package exp

import (
	"strings"
	"testing"
	"time"

	"pselinv/internal/chaos"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/factor"
	"pselinv/internal/netsim"
	"pselinv/internal/procgrid"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
	"pselinv/internal/stats"
)

// TestMeasureVolumesSmall: the table path needs no factorization — a
// symbolic-only pipeline yields one full-length vector per scheme with
// traffic in both of the paper's classes.
func TestMeasureVolumesSmall(t *testing.T) {
	p := PrepareSymbolic(sparse.Grid2D(10, 10, 1), 2, 16)
	ms := PlanVolumes(p, procgrid.New(4, 4), core.Schemes(), 1, RunOpts{})
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

// TestMeasureVolumesChaosMatchesUnperturbed: the adversary must not change
// the measured volumes — same messages, different delivery order. The
// observed run is the experiment that still measures, so an observed run
// under chaos must report, rank by rank, the Col-Bcast and Row-Reduce
// volumes PlanVolumes derives for the same configuration.
func TestMeasureVolumesChaosMatchesUnperturbed(t *testing.T) {
	p, err := Prepare(sparse.Grid2D(8, 8, 1), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	grid := procgrid.New(3, 3)
	schemes := []core.Scheme{core.ShiftedBinaryTree}
	want := PlanVolumes(p, grid, schemes, 1, RunOpts{})[0]
	ms, err := MeasureObs(p, grid, schemes, 1, time.Minute, RunOpts{Chaos: &chaos.Config{Seed: 13, DupDetect: true}})
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for _, cr := range ms[0].Report.Classes {
		for r := 0; r < grid.Size(); r++ {
			var sent, recv int64
			for x := 0; x < grid.Size(); x++ {
				sent += cr.Matrix[r*grid.Size()+x]
				recv += cr.Matrix[x*grid.Size()+r]
			}
			switch cr.Class {
			case simmpi.ClassColBcast.String():
				compared++
				if got := stats.MB(sent); got != want.ColBcastSent[r] {
					t.Errorf("rank %d: Col-Bcast sent %g MB under chaos, plan %g", r, got, want.ColBcastSent[r])
				}
			case simmpi.ClassRowReduce.String():
				compared++
				if got := stats.MB(recv); got != want.RowReduceRecv[r] {
					t.Errorf("rank %d: Row-Reduce received %g MB under chaos, plan %g", r, got, want.RowReduceRecv[r])
				}
			}
		}
	}
	if compared != 2*grid.Size() {
		t.Fatalf("report compared on %d (class, rank) pairs, want %d", compared, 2*grid.Size())
	}
}

// TestMeasureObsDagAttachesStats pins the -dag observability wiring: a DAG
// run's report — assembled, like every report, by obs.Merge from the
// engine's per-rank snapshots — must carry per-rank scheduler stats in rank
// order with the plan-determined task count, and a sequential run's report
// must carry none.
func TestMeasureObsDagAttachesStats(t *testing.T) {
	dense.SetWorkers(4)
	defer dense.SetWorkers(0)
	p, err := Prepare(sparse.Grid2D(8, 8, 1), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	grid := procgrid.New(2, 2)
	schemes := []core.Scheme{core.ShiftedBinaryTree}
	seqMs, err := MeasureObs(p, grid, schemes, 1, time.Minute, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if seqMs[0].Report.Dag != nil {
		t.Fatal("sequential run attached dag stats")
	}
	dagMs, err := MeasureObs(p, grid, schemes, 1, time.Minute, RunOpts{DAG: true})
	if err != nil {
		t.Fatal(err)
	}
	stats := dagMs[0].Report.Dag
	if len(stats) != grid.Size() {
		t.Fatalf("got dag stats for %d ranks, want %d", len(stats), grid.Size())
	}
	total := 0
	for r, s := range stats {
		if s.Rank != r {
			t.Fatalf("dag stats out of rank order: entry %d is rank %d", r, s.Rank)
		}
		total += s.Tasks
		if s.Occupancy < 0 {
			t.Fatalf("negative occupancy: %+v", s)
		}
	}
	// One TRSM per factor block, one GEMM per product plus one diagonal
	// contribution per lower block, one diagonal inverse per supernode (the
	// count TestComputeSpanCountsArePlanDetermined derives): a property of the
	// plan, so it survives StripSchedule, which zeroes the rest.
	want := p.An.BP.NumSnodes()
	for k := 0; k < p.An.BP.NumSnodes(); k++ {
		c := len(p.An.BP.Struct(k))
		want += 2*c + c*c
	}
	if total != want {
		t.Fatalf("dag run reported %d tasks, the plan has %d", total, want)
	}
	dagMs[0].Report.StripSchedule()
	stripped := 0
	for _, s := range dagMs[0].Report.Dag {
		stripped += s.Tasks
		if s.Offloaded != 0 || s.BusyNS != 0 || s.WallNS != 0 || s.Occupancy != 0 {
			t.Fatalf("StripSchedule left scheduling in the dag section: %+v", s)
		}
	}
	if stripped != want {
		t.Fatalf("stripped report counts %d tasks, want %d", stripped, want)
	}
	if !strings.Contains(dagMs[0].Report.Summary(), "task-DAG") {
		t.Fatal("report summary does not mention the task DAG")
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
