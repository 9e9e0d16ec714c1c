package pselinv

import (
	"math"
	"reflect"
	"testing"
	"time"

	"pselinv/internal/blockmat"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/obs"
	"pselinv/internal/procgrid"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// withPoolWorkers raises the kernel pool degree so TrySubmit actually
// offloads tasks regardless of the test machine's core count (on a
// single-core runner the default degree is 1, where DAG mode degenerates
// to inline execution and the concurrent paths would go untested).
func withPoolWorkers(t testing.TB, n int) {
	t.Helper()
	dense.SetWorkers(n)
	t.Cleanup(func() { dense.SetWorkers(0) })
}

// runPlan executes one engine run of plan in the given mode and snapshots
// the A⁻¹ blocks (the run's arena storage is recycled before returning).
func runPlan(t *testing.T, plan *core.Plan, lu *factor.LU, dag bool) map[blockmat.Key][]float64 {
	t.Helper()
	grid, scheme := plan.Grid, plan.Scheme
	eng := NewEngine(plan, lu)
	eng.DAG = dag
	res, err := eng.Run(testTimeout)
	if err != nil {
		t.Fatalf("grid %v scheme %v dag=%v: %v", grid, scheme, dag, err)
	}
	if cerr := res.World.CheckConservation(); cerr != nil {
		t.Fatalf("grid %v scheme %v dag=%v: %v", grid, scheme, dag, cerr)
	}
	if dag {
		total := 0
		for _, s := range res.Dag {
			total += s.Tasks
			if s.BusyNS < 0 || s.MaxWidth < 0 || s.Offloaded > s.Tasks {
				t.Fatalf("grid %v scheme %v: implausible dag stats %+v", grid, scheme, s)
			}
		}
		if total == 0 {
			t.Fatalf("grid %v scheme %v: dag run executed no tasks", grid, scheme)
		}
	} else if res.Dag != nil {
		t.Fatalf("grid %v scheme %v: sequential run carries dag stats", grid, scheme)
	}
	out := map[blockmat.Key][]float64{}
	res.Ainv.Range(func(key blockmat.Key, b *dense.Matrix) {
		out[key] = append([]float64(nil), b.Data...)
	})
	res.Release()
	return out
}

// diffBits reports the first bitwise difference between two snapshots.
func diffBits(a, b map[blockmat.Key][]float64) string {
	if len(a) != len(b) {
		return "block counts differ"
	}
	for key, av := range a {
		bv, ok := b[key]
		if !ok || len(av) != len(bv) {
			return "block sets differ"
		}
		for x := range av {
			if math.Float64bits(av[x]) != math.Float64bits(bv[x]) {
				return "entries differ"
			}
		}
	}
	return ""
}

// TestDagToggleOnOneEngine flips DAG on one Engine value between runs: the
// flag selects where compute executes, never how a reduction folds, so the
// sequential run, the DAG run and a second sequential run must agree bit
// for bit.
func TestDagToggleOnOneEngine(t *testing.T) {
	withPoolWorkers(t, 4)
	g := sparse.Grid2D(6, 6, 4)
	an, lu, _ := prep(t, g, etree.Options{Relax: 2, MaxWidth: 8})
	eng := NewEngine(core.NewPlan(an.BP, procgrid.New(2, 2), core.ShiftedBinaryTree, 1), lu)
	var base map[blockmat.Key][]float64
	for _, dag := range []bool{false, true, false} {
		eng.DAG = dag
		res, err := eng.Run(testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		got := map[blockmat.Key][]float64{}
		res.Ainv.Range(func(key blockmat.Key, b *dense.Matrix) {
			got[key] = append([]float64(nil), b.Data...)
		})
		res.Release()
		if base == nil {
			base = got
		} else if msg := diffBits(base, got); msg != "" {
			t.Fatalf("dag=%v differs from the first sequential run: %s", dag, msg)
		}
	}
}

// TestComputeSpanCountsArePlanDetermined: every compute task carries exactly
// one trace span in either execution mode — also the diagonal-contribution
// GEMMs, which the sequential mode used to run bare, so its traces
// under-reported busy time relative to DAG runs. Per kind the count equals
// the plan-determined task count; on the benchmark's warm problem
// (DG2D(24,24,4) at 4×4, relax 4 / maxWidth 48) that is 5,276 tasks on the
// symmetric plan.
func TestComputeSpanCountsArePlanDetermined(t *testing.T) {
	withPoolWorkers(t, 4)
	g := sparse.DG2D(24, 24, 4, 1)
	an, lu, ref := prep(t, g, etree.Options{Relax: 4, MaxWidth: 48})
	ref.Release()
	var blocks, products int // Σ|C| and Σ|C|² over the supernodes
	for k := 0; k < an.BP.NumSnodes(); k++ {
		c := len(an.BP.Struct(k))
		blocks += c
		products += c * c
	}
	for _, symmetric := range []bool{true, false} {
		// One TRSM per factor block, one GEMM per product plus one diagonal
		// contribution per lower block, one diagonal inverse per supernode;
		// the general plan repeats the TRSMs and products on the upper side.
		want := map[string]int{"trsm": blocks, "gemm": products + blocks, "diag-inverse": an.BP.NumSnodes()}
		total := 2*blocks + products + an.BP.NumSnodes()
		if symmetric {
			if total != 5276 {
				t.Fatalf("symmetric plan has %d compute tasks, the issue counted 5276", total)
			}
		} else {
			want["trsm-u"], want["gemm-u"] = blocks, products
			total += blocks + products
		}
		plan := core.NewPlanConfig(an.BP, procgrid.New(4, 4),
			core.PlanConfig{Scheme: core.ShiftedBinaryTree, Seed: 1, Symmetric: symmetric})
		for _, dag := range []bool{false, true} {
			eng := NewEngine(plan, lu)
			eng.DAG, eng.Obs = dag, obs.NewCollector(plan.PerRankMsgs(), time.Now())
			res, err := eng.Run(testTimeout)
			if err != nil {
				t.Fatalf("symmetric=%v dag=%v: %v", symmetric, dag, err)
			}
			got := map[string]int{}
			for _, snap := range res.Snapshots {
				for _, sp := range snap.Spans {
					if sp.Role == "" { // compute spans; collective spans carry a tree role
						got[sp.Kind]++
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("symmetric=%v dag=%v: compute spans per kind %v, want %v", symmetric, dag, got, want)
			}
			if dag {
				tasks := 0
				for _, d := range res.Dag {
					tasks += d.Tasks
				}
				if tasks != total {
					t.Errorf("symmetric=%v: scheduler ran %d tasks, plan has %d", symmetric, tasks, total)
				}
			}
			res.Release()
		}
	}
}

// TestExecNilObsZeroAlloc: an unobserved run pays one nil check per span
// site. A task's compute + span path — exec, inline — and a collective's span
// bracket allocate nothing and read no clock with Obs == nil; the same calls
// on an observed engine append the spans.
func TestExecNilObsZeroAlloc(t *testing.T) {
	diag := dense.GetMatrixElem(8, 8, dense.Real)
	x := dense.GetMatrixElem(8, 8, dense.Real)
	for i := 0; i < 8; i++ {
		diag.Set(i, i, 1)
		x.Set(i, i, 2)
	}
	tree := core.NewTree(core.FlatTree, 0, []int{0}, 1, 0)
	op := core.CollRole{Op: &core.CollOp{Kind: core.OpColBcast, K: 3, Tree: tree}, Parent: -1}
	tk := task{kernel: kTrsm, side: core.Lower, span: "trsm", k: 3, a: diag, out: x}
	st := &rankState{e: &Engine{}, r: &simmpi.Rank{ID: 0}}
	run := func() {
		st.exec(tk)
		t0 := st.spanStart()
		if st.e.Obs == nil && !t0.IsZero() {
			t.Error("unobserved span site read the clock")
		}
		st.collSpanEnd(&op, t0)
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("compute + span path with nil Obs allocates %.2f/op, want 0", allocs)
	}

	st.e.Obs = obs.NewCollector([]int{1}, time.Now())
	run()
	spans := st.e.Obs.EncodeRank(0).Spans
	if len(spans) != 2 || spans[0].Kind != "trsm" || spans[0].Supernode != 3 || spans[0].Role != "" ||
		spans[1].Kind != "col-bcast" || spans[1].Role != "root" {
		t.Errorf("observed run appended %+v, want a trsm compute span and a col-bcast root span", spans)
	}
}

// TestDagObservedSpansRace is the race-detector witness (tier1) for the collector's lock-free timelines: sixteen rank goroutines with
// four kernel workers under them, every compute task offloadable, and the
// only writers of a rank's span slice are that rank's goroutine — a DAG
// task's span is appended when the rank applies its completion. The spans'
// busy time is the scheduler's, read off the same clock.
func TestDagObservedSpansRace(t *testing.T) {
	withPoolWorkers(t, 4)
	_, lu, _ := prep(t, sparse.Grid2D(12, 12, 1), etree.Options{Relax: 2, MaxWidth: 8})
	plan := core.NewPlan(lu.BP, procgrid.New(4, 4), core.ShiftedBinaryTree, 1)
	eng := NewEngine(plan, lu)
	eng.DAG, eng.Obs = true, obs.NewCollector(plan.PerRankMsgs(), time.Now())
	res, err := eng.Run(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	if len(res.Snapshots) != 16 {
		t.Fatalf("%d snapshots, want 16", len(res.Snapshots))
	}
	offloaded := 0
	for r, snap := range res.Snapshots {
		if snap.Rank != r || snap.Dag == nil {
			t.Fatalf("snapshot %d: rank %d, dag stats %v", r, snap.Rank, snap.Dag)
		}
		tasks, busy := 0, int64(0)
		for _, sp := range snap.Spans {
			if sp.Rank != r {
				t.Fatalf("rank %d's timeline holds a span of rank %d", r, sp.Rank)
			}
			if sp.Deps != "" {
				tasks++
				busy += int64(sp.Dur())
			}
		}
		if tasks != snap.Dag.Tasks || busy != snap.Dag.BusyNS {
			t.Errorf("rank %d: %d task spans summing to %d ns, scheduler ran %d tasks busy %d ns",
				r, tasks, busy, snap.Dag.Tasks, snap.Dag.BusyNS)
		}
		offloaded += snap.Dag.Offloaded
	}
	if offloaded == 0 {
		t.Error("no task was offloaded to a pool worker: the concurrent path went untested")
	}
}
