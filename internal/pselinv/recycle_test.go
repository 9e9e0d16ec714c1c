package pselinv

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"pselinv/internal/blockmat"
	"pselinv/internal/chaos"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/procgrid"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// The run state lives on the template and is recycled across runs (DESIGN.md
// §5p). These tests pin what that must not change: every run's bits, the
// independence of concurrent runs, and that a run which failed never hands
// its state on.

// snapshot runs eng and copies its blocks out.
func snapshot(t testing.TB, eng *Engine) map[blockmat.Key][]float64 {
	t.Helper()
	res, err := eng.Run(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return blocksOf(res)
}

// blocksOf copies a result's blocks out and releases it.
func blocksOf(res *RunResult) map[blockmat.Key][]float64 {
	defer res.Release()
	out := map[blockmat.Key][]float64{}
	res.Ainv.Range(func(key blockmat.Key, b *dense.Matrix) {
		out[key] = append([]float64(nil), b.Data...)
	})
	return out
}

// idleSets returns the template's free list (the test is the only user).
func idleSets(e *Engine) [][]*rankState {
	e.tmpl.mu.Lock()
	defer e.tmpl.mu.Unlock()
	return append([][]*rankState(nil), e.tmpl.idle...)
}

// ringsOf returns the first slot of each rank's inbox ring in a state set, nil
// where the rank keeps none.
func ringsOf(set []*rankState) []*simmpi.Message {
	out := make([]*simmpi.Message, len(set))
	for r, st := range set {
		if st != nil && len(st.ring) > 0 {
			out[r] = &st.ring[0]
		}
	}
	return out
}

// recyclePlans is the symmetric plan on symmetric values and the general plan
// on asymmetric ones, each with a real and a complex factorization.
func recyclePlans(t testing.TB, procs int) map[string]struct {
	plan *core.Plan
	lus  []*factor.LU
} {
	out := map[string]struct {
		plan *core.Plan
		lus  []*factor.LU
	}{}
	opt := etree.Options{Relax: 2, MaxWidth: 8}
	for name, g := range map[string]*sparse.Generated{
		"symmetric": sparse.DG2D(6, 6, 3, 2),
		"general":   sparse.Asymmetrize(sparse.DG2D(6, 6, 3, 2), 7, 0.4),
	} {
		an, lus := bothElems(t, g, opt)
		if lus[0].Symmetric != (name == "symmetric") {
			t.Fatalf("%s values factorized with Symmetric = %v", name, lus[0].Symmetric)
		}
		plan := core.NewPlanConfig(an.BP, procgrid.Squarish(procs), core.PlanConfig{
			Scheme: core.ShiftedBinaryTree, Seed: 1, Symmetric: lus[0].Symmetric})
		out[name] = struct {
			plan *core.Plan
			lus  []*factor.LU
		}{plan, lus}
	}
	return out
}

// TestRecycledStateBitIdentical runs one template eight times, alternating
// real and complex factorizations, DAG on and off and chaos seed 0 and 7, and
// wants every result bit-identical to a fresh engine's run of the same plan —
// on the one state set the template keeps, which every run must take.
func TestRecycledStateBitIdentical(t *testing.T) {
	withPoolWorkers(t, 4)
	for _, procs := range []int{1, 4, 16} {
		for name, c := range recyclePlans(t, procs) {
			t.Run(fmt.Sprintf("%s/P=%d", name, procs), func(t *testing.T) {
				var want [2]map[blockmat.Key][]float64
				for x, lu := range c.lus {
					want[x] = snapshot(t, NewEngine(c.plan, lu))
				}
				tmpl := NewEngine(c.plan, nil)
				var set []*rankState
				for run := 0; run < 8; run++ {
					eng := tmpl.Rebind(c.lus[run%2])
					eng.DAG = run/2%2 == 1
					var adv *chaos.Config
					if run/4%2 == 1 {
						adv = &chaos.Config{Seed: 7}
					}
					res, err := runUnder(eng, adv)
					if err != nil {
						t.Fatal(err)
					}
					if d := diffBits(want[run%2], blocksOf(res)); d != "" {
						t.Fatalf("run %d (%s, dag=%v, chaos=%v) vs a fresh engine: %s",
							run, eng.LU.Elem, eng.DAG, adv != nil, d)
					}
					idle := idleSets(tmpl)
					if len(idle) != 1 || run > 0 && &idle[0][0] != &set[0] {
						t.Fatalf("run %d: %d idle state sets, want the one set every run recycles", run, len(idle))
					}
					set = idle[0]
				}
			})
		}
	}
}

// TestRecycledStateConcurrentRuns shares one template between two goroutines
// of eight runs each (under the race detector in tier1): concurrent runs take
// separate state sets, and every result has the reference's bits.
func TestRecycledStateConcurrentRuns(t *testing.T) {
	withPoolWorkers(t, 4)
	c := recyclePlans(t, 4)["general"]
	var want [2]map[blockmat.Key][]float64
	for x, lu := range c.lus {
		want[x] = snapshot(t, NewEngine(c.plan, lu))
	}
	tmpl := NewEngine(c.plan, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := 0; run < 8; run++ {
				eng := tmpl.Rebind(c.lus[(g+run)%2])
				eng.DAG = run%2 == 1
				res, err := eng.Run(testTimeout)
				if err != nil {
					errs <- err
					return
				}
				if d := diffBits(want[(g+run)%2], blocksOf(res)); d != "" {
					errs <- fmt.Errorf("goroutine %d run %d: %s", g, run, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := len(idleSets(tmpl)); n < 1 || n > 2 {
		t.Errorf("%d idle state sets after two concurrent streams of runs, want 1 or 2", n)
	}
}

// TestFailedRunStateNotRecycled fails a run on a warm template three ways —
// a symmetric plan bound to asymmetric values, a duplicated reduce payload
// (*messageError), a dropped message (timeout) — and wants the state the failed
// run took, and the inbox rings that travel with it, never to come back, and
// the next run on the template correct.
func TestFailedRunStateNotRecycled(t *testing.T) {
	an, lu, _ := prep(t, sparse.Grid2D(6, 6, 3), etree.Options{Relax: 2, MaxWidth: 6})
	plan := core.NewPlan(an.BP, procgrid.New(2, 2), core.ShiftedBinaryTree, 1)
	want := snapshot(t, NewEngine(plan, lu))
	// The edge to tamper with: a child's partial sum of the topmost
	// cross-rank Row-Reduce (as in TestBadReduceMessageFailsRun).
	var op *core.CollOp
	src := -1
	for k := len(plan.Snodes) - 1; k >= 0 && op == nil; k-- {
		for x := range plan.Snodes[k].RowReduces {
			if tr := plan.Snodes[k].RowReduces[x].Tree; tr.Size() > 1 {
				op, src = &plan.Snodes[k].RowReduces[x], tr.Children(tr.Root)[0]
				break
			}
		}
	}
	if op == nil {
		t.Fatal("plan has no cross-rank Row-Reduce")
	}
	isTarget := func(msg *simmpi.Message) bool { return msg.Tag == core.OpKey(op.Kind, op.K, op.Blk) && msg.Src == src }

	_, asym, ref := prepAsym(t, sparse.Asymmetrize(sparse.Grid2D(6, 6, 3), 7, 0.4), etree.Options{Relax: 2, MaxWidth: 6})
	ref.Release()
	faults := []struct {
		name string
		run  func(tmpl *Engine) error
	}{
		{"symmetric plan on asymmetric values", func(tmpl *Engine) error {
			_, err := tmpl.Rebind(asym).Run(testTimeout)
			var se symmetryError
			if !errors.As(err, &se) {
				return fmt.Errorf("error is %T (%v), want a symmetryError", err, err)
			}
			return nil
		}},
		{"duplicated reduce payload", func(tmpl *Engine) error {
			tt := &tamperTransport{InProc: simmpi.NewInProc(plan.Grid.Size())}
			tt.onSend = func(tr *simmpi.InProc, msg simmpi.Message) {
				if isTarget(&msg) {
					msg.Data = append([]float64(nil), msg.Data...)
					tr.Send(msg)
				}
			}
			world := simmpi.NewWorldOn(tt)
			defer world.Close()
			_, err := tmpl.Rebind(lu).RunWorld(world, testTimeout)
			var re *messageError
			if !errors.As(err, &re) {
				return fmt.Errorf("error is %T (%v), want a *messageError", err, err)
			}
			return nil
		}},
		{"dropped message", func(tmpl *Engine) error {
			world := simmpi.NewWorld(plan.Grid.Size())
			defer world.Close()
			chaos.Install(chaos.Config{Seed: 1, Drop: isTarget}, world)
			_, err := tmpl.Rebind(lu).RunWorld(world, 300*time.Millisecond)
			var te *simmpi.TimeoutError
			if !errors.As(err, &te) {
				return fmt.Errorf("error is %T (%v), want a timeout", err, err)
			}
			return nil
		}},
	}
	for x, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			tmpl := NewEngine(plan, nil)
			if d := diffBits(want, snapshot(t, tmpl.Rebind(lu))); d != "" {
				t.Fatalf("warm-up run: %s", d)
			}
			warm := idleSets(tmpl)[0]
			warmRings := ringsOf(warm)
			if !slices.ContainsFunc(warmRings, func(m *simmpi.Message) bool { return m != nil }) {
				t.Fatal("the warm-up run handed no inbox ring to its state")
			}
			if err := f.run(tmpl); err != nil {
				t.Fatal(err)
			}
			idle := idleSets(tmpl)
			if x == 0 {
				// Refused before a message is sent: the run took no state.
				if len(idle) != 1 || &idle[0][0] != &warm[0] {
					t.Fatalf("the refused run disturbed the free list (%d sets)", len(idle))
				}
			} else if len(idle) != 0 {
				t.Fatalf("the failed run's state went back on the free list (%d sets)", len(idle))
			}
			if d := diffBits(want, snapshot(t, tmpl.Rebind(lu))); d != "" {
				t.Fatalf("run after the failure: %s", d)
			}
			if idle = idleSets(tmpl); len(idle) != 1 || x > 0 && &idle[0][0] == &warm[0] {
				t.Fatalf("after the recovery run: %d idle sets, reused the failed run's = %v",
					len(idle), len(idle) == 1 && &idle[0][0] == &warm[0])
			}
			for r, ring := range ringsOf(idle[0]) {
				if x == 0 && ring != warmRings[r] {
					t.Fatalf("rank %d: the refused run moved the warm set's inbox ring", r)
				}
				if x > 0 && ring != nil && ring == warmRings[r] {
					t.Fatalf("rank %d: the failed run's inbox ring came back", r)
				}
			}
		})
	}
}

// TestSteadyStateRunAllocs holds a warm Rebind(lu).Run on DG2D(8,8,4), 16
// ranks, to an allocation count and, in the median of nine runs, a byte budget.
// What is left is the run's own: the world and its mailboxes, sixteen
// goroutines, the result and its block map, arena misses after a collection
// (1,255 allocations per run with per-run maps, redStates and per-message
// headers; 338 without). The mailboxes' ring buffers come with the recycled
// state, so a warm run grows none (≈60 KB per run when every run grew its
// sixteen rings from empty, ≈30 KB without). Not held under the race
// detector, where sync.Pool drops the arena's buffers at random.
func TestSteadyStateRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const budget, budgetKB = 600, 40
	an, lu, ref := prep(t, sparse.DG2D(8, 8, 4, 1), etree.Options{Relax: 4, MaxWidth: 48})
	ref.Release()
	tmpl := NewEngine(core.NewPlan(an.BP, procgrid.New(4, 4), core.ShiftedBinaryTree, 1), nil)
	run := func() {
		res, err := tmpl.Rebind(lu).Run(testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	run()
	run()
	allocs := testing.AllocsPerRun(10, run)
	kb := make([]float64, 9)
	for x := range kb {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		kb[x] = float64(after.TotalAlloc-before.TotalAlloc) / 1e3
	}
	slices.Sort(kb)
	if allocs > budget || kb[4] > budgetKB {
		t.Errorf("a warm run allocates %.0f times and %.1f KB, budget %d and %d KB", allocs, kb[4], budget, budgetKB)
	} else {
		t.Logf("a warm run allocates %.0f times and %.1f KB", allocs, kb[4])
	}
}
