package pselinv

import (
	"strings"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/simmpi"
)

// obsProblem is the small fixed problem behind the observability acceptance
// tests and internal/obs's goldens: a 16×16 grid Laplacian, inverted on 16
// ranks (a 4×4 grid) — big enough that column/row trees reach the full
// 4-participant fan-out where flat and binary chains separate, small enough
// to run in well under a second. opt adds the plan and engine knobs.
func obsProblem(t *testing.T, opt Options) *System {
	t.Helper()
	opt.Ordering, opt.Relax, opt.MaxWidth = OrderNestedDissection, 2, 8
	return newObservedSystem(t, Grid2D(16, 16, 1), opt)
}

// newObservedSystem is NewSystem, released when the test ends.
func newObservedSystem(t *testing.T, m *Matrix, opt Options) *System {
	t.Helper()
	sys, err := NewSystem(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Release)
	return sys
}

// TestObsAcceptance is the observability acceptance check: one observed run
// per scheme on the 4×4 grid must yield (a) a merged Chrome trace containing
// both compute and collective spans, (b) per-class traffic matrices whose
// marginals equal the world's volume counters (the numbers cmd/commvol
// prints for the same seed), and (c) measured broadcast forwarding chains
// where the tree schemes beat the flat tree.
func TestObsAcceptance(t *testing.T) {
	sys := obsProblem(t, Options{})
	chainSum := map[Scheme]int{}
	for _, scheme := range core.Schemes() {
		res, trace, orep, err := sys.ParallelSelInvObserved(16, scheme, 1)
		if err != nil {
			t.Fatal(err)
		}
		rep := orep.rep

		// (a) Merged trace: compute spans and role-tagged collective spans
		// on one timeline.
		var b strings.Builder
		if err := trace.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		tr := b.String()
		for _, want := range []string{`"cat":"compute"`, `"cat":"collective"`,
			`"role":"root"`, `"role":"leaf"`, "gemm", "col-bcast"} {
			if !strings.Contains(tr, want) {
				t.Errorf("%v: chrome trace lacks %s", scheme, want)
			}
		}

		// (b) Traffic matrices are consistent with the byte counters: per
		// class, row sums equal SentBytes and column sums equal RecvBytes.
		if len(rep.Classes) == 0 {
			t.Fatalf("%v: report has no traffic classes", scheme)
		}
		world := res.run.World
		for _, cr := range rep.Classes {
			if cr.Matrix == nil {
				t.Fatalf("%v: class %s has no embedded matrix at P=%d", scheme, cr.Class, rep.P)
			}
			var class simmpi.Class
			found := false
			for _, c := range simmpi.Classes() {
				if c.String() == cr.Class {
					class, found = c, true
				}
			}
			if !found {
				t.Fatalf("%v: unknown class %s", scheme, cr.Class)
			}
			for r := 0; r < rep.P; r++ {
				var row, col int64
				for x := 0; x < rep.P; x++ {
					row += cr.Matrix[r*rep.P+x]
					col += cr.Matrix[x*rep.P+r]
				}
				if want := world.SentBytes(r, class); row != want {
					t.Errorf("%v: %s rank %d: matrix row sum %d, counter %d",
						scheme, cr.Class, r, row, want)
				}
				if want := world.RecvBytes(r, class); col != want {
					t.Errorf("%v: %s rank %d: matrix col sum %d, counter %d",
						scheme, cr.Class, r, col, want)
				}
			}
		}
		res.Release()

		// (c) Chain analysis must be complete (no ring overflow) for the
		// comparison to mean anything.
		if !rep.ChainsOK {
			t.Fatalf("%v: chain analysis incomplete (%d events dropped)", scheme, rep.DroppedEvents)
		}
		chainSum[scheme] = rep.BcastChainSum()
	}

	flat := chainSum[FlatTree]
	if flat == 0 {
		t.Fatal("flat-tree run measured no broadcast chains")
	}
	for _, s := range []Scheme{BinaryTree, ShiftedBinaryTree} {
		if chainSum[s] >= flat {
			t.Errorf("measured bcast chain sum for %v (%d) is not below FlatTree (%d)",
				s, chainSum[s], flat)
		}
	}
	t.Logf("measured bcast chain sums: %v", chainSum)
}

// TestObsChainsCompleteWithoutCapacity: the ring is sized from the plan, so
// problems an order of magnitude past obsProblem analyze complete chains
// with no capacity given anywhere — here the two P=16 benchmark-sized ones
// (1,065 and 7,311 messages through the busiest rank).
func TestObsChainsCompleteWithoutCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("factorizes a 96x96 grid")
	}
	for _, m := range []*Matrix{DG2D(24, 24, 4, 1), Grid2D(96, 96, 1)} {
		sys := newObservedSystem(t, m, Options{Ordering: OrderNestedDissection, Relax: 4, MaxWidth: 24})
		res, _, orep, err := sys.ParallelSelInvObserved(16, ShiftedBinaryTree, 1)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		if rep := orep.rep; !rep.ChainsOK || rep.DroppedEvents != 0 {
			t.Errorf("%s: chains complete=%v, %d events dropped", m.Name(), rep.ChainsOK, rep.DroppedEvents)
		}
	}
}

// TestObsCrossNodeColumns checks the chain-table side of the topology
// criterion: a topology-annotated observed run reports cross-node hops per
// class, and the topology-aware scheme meets the nodes-1 spanning-tree
// reference on the broadcast classes while the blind scheme exceeds it
// somewhere.
func TestObsCrossNodeColumns(t *testing.T) {
	// 16 ranks at 8 per node: a 2-node hierarchy whose boundary the 4×4
	// grid's column groups straddle (two members per node), so a blind
	// scheme can waste cross-node hops that the aware one avoids. (At 4
	// per node every column-group member sits on its own node and all
	// schemes tie at the spanning-tree floor.)
	const cpn = 8
	sys := obsProblem(t, Options{CoresPerNode: cpn})
	crossSum := map[Scheme]int{}
	for _, scheme := range []Scheme{ShiftedBinaryTree, TopoShiftedTree} {
		res, _, orep, err := sys.ParallelSelInvObserved(16, scheme, 1)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		rep := orep.rep
		if rep.CoresPerNode != cpn {
			t.Fatalf("%v: report cores_per_node = %d, want %d", scheme, rep.CoresPerNode, cpn)
		}
		for _, cs := range rep.Collectives {
			if cs.Kind != "bcast" {
				continue
			}
			crossSum[scheme] += cs.CrossSum
			if cs.NodesMax == 0 {
				t.Errorf("%v %s: chain summary missing node annotations", scheme, cs.Class)
			}
			if cs.CrossRef != cs.NodesMax-1 {
				t.Errorf("%v %s: crossRef %d, want nodesMax-1 = %d",
					scheme, cs.Class, cs.CrossRef, cs.NodesMax-1)
			}
			// Every single topology-aware collective hits the spanning-tree
			// minimum, so the worst one equals the reference.
			if scheme == TopoShiftedTree && cs.CrossMax > cs.CrossRef {
				t.Errorf("%v %s: crossMax %d exceeds the nodes-1 reference %d",
					scheme, cs.Class, cs.CrossMax, cs.CrossRef)
			}
		}
	}
	if topo, blind := crossSum[TopoShiftedTree], crossSum[ShiftedBinaryTree]; topo >= blind {
		t.Errorf("toposhifted measured %d cross-node bcast hops, not fewer than shifted's %d", topo, blind)
	}
}

// TestMeasureVolumesChaosMatchesUnperturbed: the adversary must not change
// the measured volumes — same messages, different delivery order. An
// observed run under chaos must report, rank by rank, the Col-Bcast and
// Row-Reduce bytes the plan of the same configuration moves.
func TestMeasureVolumesChaosMatchesUnperturbed(t *testing.T) {
	sys := newObservedSystem(t, Grid2D(8, 8, 1), Options{Ordering: OrderNestedDissection, Relax: 2, MaxWidth: 8})
	const p = 9 // a 3×3 grid
	plan := sys.sym.engineTemplate(3, 3, ShiftedBinaryTree, 1, sys.symmetric).Plan
	wantSent, wantRecv := plan.PerRankSent(core.OpColBcast), plan.PerRankRecv(core.OpRowReduce)
	res, orep := parallelRunUnder(t, sys, p, ShiftedBinaryTree, 1, 13, true)
	res.Release()
	compared := 0
	for _, cr := range orep.rep.Classes {
		for r := 0; r < p; r++ {
			var sent, recv int64
			for x := 0; x < p; x++ {
				sent += cr.Matrix[r*p+x]
				recv += cr.Matrix[x*p+r]
			}
			switch cr.Class {
			case simmpi.ClassColBcast.String():
				compared++
				if sent != wantSent[r] {
					t.Errorf("rank %d: Col-Bcast sent %d bytes under chaos, plan %d", r, sent, wantSent[r])
				}
			case simmpi.ClassRowReduce.String():
				compared++
				if recv != wantRecv[r] {
					t.Errorf("rank %d: Row-Reduce received %d bytes under chaos, plan %d", r, recv, wantRecv[r])
				}
			}
		}
	}
	if compared != 2*p {
		t.Fatalf("report compared on %d (class, rank) pairs, want %d", compared, 2*p)
	}
}

// TestMeasureObsDagAttachesStats pins the DAG-mode observability wiring: a
// DAG run's report — assembled, like every report, by obs.Merge from the
// engine's per-rank snapshots — must carry per-rank scheduler stats in rank
// order with the plan-determined task count, and a sequential run's report
// must carry none.
func TestMeasureObsDagAttachesStats(t *testing.T) {
	dense.SetWorkers(4)
	defer dense.SetWorkers(0)
	const p = 4 // a 2×2 grid
	sys := newObservedSystem(t, Grid2D(8, 8, 1), Options{Ordering: OrderNestedDissection, Relax: 2, MaxWidth: 8})
	res, _, seq, err := sys.ParallelSelInvObserved(p, ShiftedBinaryTree, 1)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	if seq.rep.Dag != nil {
		t.Fatal("sequential run attached dag stats")
	}
	sys.SetDAG(true)
	res, _, dag, err := sys.ParallelSelInvObserved(p, ShiftedBinaryTree, 1)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	stats := dag.rep.Dag
	if len(stats) != p {
		t.Fatalf("got dag stats for %d ranks, want %d", len(stats), p)
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
	bp := sys.an.BP
	want := bp.NumSnodes()
	for k := 0; k < bp.NumSnodes(); k++ {
		c := len(bp.Struct(k))
		want += 2*c + c*c
	}
	if total != want {
		t.Fatalf("dag run reported %d tasks, the plan has %d", total, want)
	}
	dag.rep.StripSchedule()
	stripped := 0
	for _, s := range dag.rep.Dag {
		stripped += s.Tasks
		if s.Offloaded != 0 || s.BusyNS != 0 || s.WallNS != 0 || s.Occupancy != 0 {
			t.Fatalf("StripSchedule left scheduling in the dag section: %+v", s)
		}
	}
	if stripped != want {
		t.Fatalf("stripped report counts %d tasks, want %d", stripped, want)
	}
	if !strings.Contains(dag.Summary(), "task-DAG") {
		t.Fatal("report summary does not mention the task DAG")
	}
}
