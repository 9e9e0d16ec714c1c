package pselinv

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"pselinv/internal/chaos"
	"pselinv/internal/core"
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
func snapshot(t testing.TB, eng *Engine) [][]float64 {
	t.Helper()
	res, err := eng.Run(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return blocksOf(res)
}

// blocksOf copies a result's blocks out and releases it.
func blocksOf(res *RunResult) [][]float64 {
	defer res.Release()
	return bitsOf(res.Ainv)
}

// idleSets returns the template's free list (the test is the only user).
func idleSets(e *Engine) [][]*rankState {
	e.tmpl.mu.Lock()
	defer e.tmpl.mu.Unlock()
	return append([][]*rankState(nil), e.tmpl.idle...)
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
				var want [2][][]float64
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
	var want [2][][]float64
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
// run took never to come back, nor the inbox rings its world took off simmpi's
// free list, and the next run on the template correct.
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
			if n := len(simmpi.IdleRings()); n > 0 {
				simmpi.NewInProc(n) // takes every ring on the list
			}
			tmpl := NewEngine(plan, nil)
			if d := diffBits(want, snapshot(t, tmpl.Rebind(lu))); d != "" {
				t.Fatalf("warm-up run: %s", d)
			}
			warm := idleSets(tmpl)[0]
			warmRings := simmpi.IdleRings()
			if len(warmRings) == 0 {
				t.Fatal("the warm-up run handed no inbox ring back")
			}
			if err := f.run(tmpl); err != nil {
				t.Fatal(err)
			}
			if n := len(simmpi.IdleRings()); n > 0 {
				t.Fatalf("the failed run's world handed %d inbox rings back", n)
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
			rings := simmpi.IdleRings()
			if len(rings) == 0 || slices.ContainsFunc(rings, func(m *simmpi.Message) bool { return slices.Contains(warmRings, m) }) {
				t.Fatalf("after the recovery run the free list holds %d rings, a failed run's among them = %v",
					len(rings), len(rings) > 0)
			}
		})
	}
}

// TestFreshTemplateGrowsNoRing runs two fresh templates of one plan in
// sequence, as a cold upload does, on Grid2D 32² with flat trees over 16
// ranks (many messages queue at a root at once): the second run's world starts
// on the inbox rings the first handed back to simmpi's free list, so it grows
// none. Its bytes, in the median of five pairs — the template's run state laid
// out, the world, the result — measured 425–490 KB, with the race detector and
// without; growing its rings from empty adds ≈190 KB (600–660 KB). The budget
// lies between.
func TestFreshTemplateGrowsNoRing(t *testing.T) {
	const budgetKB = 520
	an, lu, ref := prep(t, sparse.Grid2D(32, 32, 1), etree.Options{Relax: 4, MaxWidth: 48})
	ref.Release()
	plan := core.NewPlan(an.BP, procgrid.New(4, 4), core.FlatTree, 1)
	run := func(eng *Engine) {
		res, err := eng.Run(testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	kb := make([]float64, 5)
	for x := range kb {
		run(NewEngine(plan, lu))
		eng := NewEngine(plan, lu)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(eng)
		runtime.ReadMemStats(&after)
		kb[x] = float64(after.TotalAlloc-before.TotalAlloc) / 1e3
	}
	slices.Sort(kb)
	if kb[2] > budgetKB {
		t.Errorf("the second fresh template's run allocates %.1f KB, budget %d KB: it grew inbox rings", kb[2], budgetKB)
	} else {
		t.Logf("the second fresh template's run allocates %.1f KB", kb[2])
	}
}

// TestSteadyStateRunAllocs holds a warm Rebind(lu).Run on DG2D(8,8,4), 16
// ranks, to an allocation count and, in the median of nine runs, a byte budget.
// Each of the nine runs follows two collections; the dense arena keeps its
// buffers across them, so every block a warm run needs is still there. What
// is left is the run's own: the world and its mailboxes, sixteen goroutines,
// the result and its slice of blocks by pattern slot (1,255 allocations per
// run with per-run maps, redStates and per-message headers; 338 without;
// 321–323 while a partial sum sent up a reduce tree kept its matrix header
// from the arena; 154–155 and 20–24 KB while the result was a map). The
// mailboxes start on the ring buffers the last run handed to simmpi's free
// list, a mutex-guarded list no collection empties, so a warm run grows none
// (≈60 KB per run when every run grew its sixteen rings from empty, ≈30 KB
// without). Measured 151–154 allocations and 15–21 KB, with the race
// detector and without (≈500 KB when a collection emptied the arena, as a
// sync.Pool's did); the count budget leaves about a tenth on top, the byte
// budget about a fifth.
func TestSteadyStateRunAllocs(t *testing.T) {
	const budget, budgetKB = 167, 24
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
		runtime.GC()
		runtime.GC()
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
