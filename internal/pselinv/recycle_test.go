package pselinv

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pselinv/internal/chaos"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/procgrid"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// The run states live on one process-wide free list and are recycled across
// runs and templates (DESIGN.md §5p). These tests pin what that must not
// change: every run's bits, on a state laid out for any other program, the
// independence of concurrent runs, that a run which failed never hands its
// state on, and that a listed state keeps no template alive.

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

// idleStates returns the free list of states, the most recently listed last.
func idleStates() []*rankState {
	states.Lock()
	defer states.Unlock()
	return slices.Clone(states.free)
}

// dropIdleStates empties the free list, so the next run lays out fresh states.
func dropIdleStates() {
	states.Lock()
	defer states.Unlock()
	for _, st := range states.free {
		dense.Reserve(-st.cache.held)
	}
	states.free = nil
}

// topStates returns the p states a run of p ranks takes next.
func topStates(t testing.TB, p int) []*rankState {
	t.Helper()
	idle := idleStates()
	if len(idle) < p {
		t.Fatalf("%d listed states, want at least %d", len(idle), p)
	}
	return idle[len(idle)-p:]
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
// wants every result bit-identical to a fresh engine's run of the same plan,
// on fresh states — and every run to take the states the one before listed.
// Then it runs each of two plans of different patterns on the states the
// other laid out, which grows or shrinks every array, and wants the bits of a
// run on fresh states.
func TestRecycledStateBitIdentical(t *testing.T) {
	withPoolWorkers(t, 4)
	for _, procs := range []int{1, 4, 16} {
		plans := recyclePlans(t, procs)
		for name, c := range plans {
			t.Run(fmt.Sprintf("%s/P=%d", name, procs), func(t *testing.T) {
				var want [2][][]float64
				for x, lu := range c.lus {
					dropIdleStates()
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
					top := topStates(t, procs)
					if run > 0 && !slices.Equal(top, set) {
						t.Fatalf("run %d did not take the states the run before it listed", run)
					}
					set = top
				}
			})
		}
		type planLU struct {
			plan *core.Plan
			lu   *factor.LU
		}
		an, lu, ref := prep(t, sparse.Grid2D(9, 7, 2), etree.Options{Relax: 3, MaxWidth: 10})
		ref.Release()
		other := map[string]planLU{
			"general": {plans["general"].plan, plans["general"].lus[1]},
			"grid":    {core.NewPlan(an.BP, procgrid.Squarish(procs), core.BinaryTree, 3), lu},
		}
		for _, pair := range [][2]string{{"general", "grid"}, {"grid", "general"}} {
			t.Run(fmt.Sprintf("%s-on-%s/P=%d", pair[1], pair[0], procs), func(t *testing.T) {
				from, to := other[pair[0]], other[pair[1]]
				dropIdleStates()
				want := snapshot(t, NewEngine(to.plan, to.lu))
				for _, dag := range []bool{false, true} {
					dropIdleStates()
					snapshot(t, NewEngine(from.plan, from.lu))
					laid := topStates(t, procs)
					eng := NewEngine(to.plan, to.lu)
					eng.DAG = dag
					if d := diffBits(want, snapshot(t, eng)); d != "" {
						t.Fatalf("dag=%v: on states laid out for %s: %s", dag, pair[0], d)
					}
					if !slices.Equal(topStates(t, procs), laid) {
						t.Fatalf("dag=%v: the run did not take the states %s laid out", dag, pair[0])
					}
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
	dropIdleStates()
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
	if n := len(idleStates()); n < 4 || n > 8 {
		t.Errorf("%d listed states after two concurrent streams of 4-rank runs, want 4 to 8", n)
	}
}

// TestFailedRunStateNotRecycled fails a run on a warm template three ways —
// a symmetric plan bound to asymmetric values, a duplicated reduce payload
// (*messageError), a dropped message (timeout) — and wants the states the
// failed run took never to come back, nor their buffer caches, nor the inbox
// rings its world took off simmpi's free list, and the next run on the
// template correct.
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
			dropIdleStates()
			tmpl := NewEngine(plan, nil)
			if d := diffBits(want, snapshot(t, tmpl.Rebind(lu))); d != "" {
				t.Fatalf("warm-up run: %s", d)
			}
			warm := idleStates()
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
			// A failed run's state on the free list, and with it its cache:
			// the cache is a field of the state, not an object of its own.
			failed := func(idle []*rankState) bool {
				return slices.ContainsFunc(idle, func(st *rankState) bool { return slices.Contains(warm, st) })
			}
			idle := idleStates()
			if x == 0 {
				// Refused before a message is sent: the run took no state.
				if !slices.Equal(idle, warm) {
					t.Fatalf("the refused run disturbed the free list (%d states, %d before)", len(idle), len(warm))
				}
			} else if len(idle) != 0 {
				t.Fatalf("the failed run's states went back on the free list (%d)", len(idle))
			}
			if d := diffBits(want, snapshot(t, tmpl.Rebind(lu))); d != "" {
				t.Fatalf("run after the failure: %s", d)
			}
			if idle = idleStates(); len(idle) != len(warm) || x > 0 && failed(idle) {
				t.Fatalf("after the recovery run: %d listed states, a failed run's among them = %v",
					len(idle), failed(idle))
			}
			rings := simmpi.IdleRings()
			if len(rings) == 0 || slices.ContainsFunc(rings, func(m *simmpi.Message) bool { return slices.Contains(warmRings, m) }) {
				t.Fatalf("after the recovery run the free list holds %d rings, a failed run's among them = %v",
					len(rings), len(rings) > 0)
			}
		})
	}
}

// TestListedStatesKeepNoTemplate runs a template and drops it, then runs one
// of another plan, which takes the dropped one's states off the free list. The
// dropped plan, template and compiled programs must be collected — their
// finalizers run — while the states are listed, and every listed state, before
// and after the reuse, must hold no pointer into a template or plan: no engine,
// rank or program, and every array zero to its capacity, the reduction roles
// and the DAG scheduler's task objects included.
func TestListedStatesKeepNoTemplate(t *testing.T) {
	c := recyclePlans(t, 4)["general"]
	an, lu, ref := prep(t, sparse.Grid2D(9, 7, 2), etree.Options{Relax: 3, MaxWidth: 10})
	ref.Release()
	dropIdleStates()
	var gone atomic.Int32
	objects := func() int32 {
		eng := NewEngine(core.NewPlan(an.BP, procgrid.New(2, 2), core.BinaryTree, 3), lu)
		eng.DAG = true
		snapshot(t, eng)
		runtime.SetFinalizer(eng.Plan, func(*core.Plan) { gone.Add(1) })
		runtime.SetFinalizer(eng.tmpl, func(*template) { gone.Add(1) })
		for _, prog := range eng.tmpl.programs {
			runtime.SetFinalizer(prog, func(*core.Program) { gone.Add(1) })
		}
		return int32(2 + len(eng.tmpl.programs))
	}()
	for deadline := time.Now().Add(5 * time.Second); gone.Load() < objects; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of the dropped template's %d objects (plan, template, programs) survived collections",
				objects-gone.Load(), objects)
		}
		runtime.GC()
	}
	zeroToCap := func(what string, s any) {
		t.Helper()
		v := reflect.ValueOf(s)
		for i, all := 0, v.Slice(0, v.Cap()); i < all.Len(); i++ {
			if !all.Index(i).IsZero() {
				t.Fatalf("a listed state's %s[%d] of %d is not zero", what, i, v.Cap())
			}
		}
	}
	cleared := func() {
		t.Helper()
		for _, st := range idleStates() {
			if st.e != nil || st.r != nil || st.prog != nil {
				t.Fatal("a listed state keeps its engine, rank or program")
			}
			zeroToCap("red", st.red)
			zeroToCap("ainv", st.ainv)
			zeroToCap("bufs", st.bufs)
			for _, ss := range st.side {
				zeroToCap("hat", ss.hat)
				zeroToCap("bcast", ss.bcast)
				zeroToCap("taskDone", ss.taskDone)
			}
			for _, parts := range st.spare {
				zeroToCap("spare", *parts)
			}
			if st.dag != nil {
				for _, dt := range st.dag.free {
					zeroToCap("task", []task{dt.task})
				}
				zeroToCap("ready", st.dag.ready)
			}
		}
	}
	cleared()
	laid := topStates(t, 4)
	snapshot(t, NewEngine(c.plan, c.lus[0]))
	if !slices.Equal(topStates(t, 4), laid) {
		t.Fatal("the second template did not take the states the first laid out")
	}
	cleared()
}

// TestCacheParkSpillsSurplus runs a rank cache through two uses that each take
// two buffers of a class and put three back — one received from another rank —
// and wants park to hand the shared lists the one buffer the second use left
// untouched, to count every trip, and to reserve what it keeps.
func TestCacheParkSpillsSurplus(t *testing.T) {
	const n, k = 100, 7 // class 7 holds 128 float64s
	var c cache
	use := func() {
		a, b := c.getBuf(n), c.getBuf(n)
		c.putBuf(a)
		c.putBuf(b)
		c.putBuf(make([]float64, n, 1<<k))
	}
	use() // two misses
	if !c.park(1000) {
		t.Fatal("a cache of 3 KB did not fit the budget")
	}
	if len(c.free[k]) != 3 || c.trips != 2 || c.held != 1000+3*8<<k {
		t.Fatalf("after the first use: %d buffers kept, %d trips, %d bytes held; want 3, 2 and %d",
			len(c.free[k]), c.trips, c.held, 1000+3*8<<k)
	}
	dense.Reserve(-c.held)
	use() // two hits: one buffer is never taken
	if !c.park(0) {
		t.Fatal("a cache of 3 KB did not fit the budget")
	}
	defer dense.Reserve(-c.held)
	if len(c.free[k]) != 3 || c.trips != 3 || c.held != 3*8<<k {
		t.Fatalf("after the second use: %d buffers kept, %d trips, %d bytes held; want 3, 3 (one spilled) and %d",
			len(c.free[k]), c.trips, c.held, 3*8<<k)
	}
}

// TestWarmRunSharedTrips counts the trips a warm run's rank caches make to the
// dense arena's shared lists, misses and spills. Each A⁻¹ block leaves its
// rank's cache for the RunResult, which hands it to the shared lists on
// Release, so a warm run takes it back: a buffer and a header. Past those it
// allows six trips per rank, for the partial sums that cross ranks: a rank
// that sends more than it receives misses what one that receives more spills.
// DG2D(8,8,4) on 16 ranks: 161 blocks, 304–320 trips measured at GOMAXPROCS
// 1, 2, 4 and 8, with the race detector and without, on 2 vCPUs.
func TestWarmRunSharedTrips(t *testing.T) {
	const procs = 16
	an, lu, ref := prep(t, sparse.DG2D(8, 8, 4, 1), etree.Options{Relax: 4, MaxWidth: 48})
	ref.Release()
	dropIdleStates()
	tmpl := NewEngine(core.NewPlan(an.BP, procgrid.New(4, 4), core.ShiftedBinaryTree, 1), nil)
	trips := func(set []*rankState) (n int) {
		for _, st := range set {
			n += st.cache.trips
		}
		return n
	}
	var set []*rankState
	before := 0
	for run := 0; run < 3; run++ {
		res, err := tmpl.Rebind(lu).Run(testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		blocks := 0
		res.Ainv.Range(func(int, int, *dense.Matrix) { blocks++ })
		res.Release()
		if run > 0 && !slices.Equal(topStates(t, procs), set) {
			t.Fatalf("run %d did not take the states the run before it listed", run)
		}
		set = topStates(t, procs)
		n := trips(set) - before
		before += n
		if run < 2 {
			continue
		}
		if n > 2*blocks+6*procs {
			t.Errorf("a warm run made %d trips to the shared lists, want at most %d for its %d blocks and %d ranks",
				n, 2*blocks+6*procs, blocks, procs)
		} else {
			t.Logf("a warm run made %d trips to the shared lists for its %d blocks", n, blocks)
		}
	}
}

// TestFreshTemplateGrowsNoRing runs two fresh templates of one plan in
// sequence, as a cold upload does, on Grid2D 32² with flat trees over 16
// ranks (many messages queue at a root at once): the second run's world starts
// on the inbox rings the first handed back to simmpi's free list, so it grows
// none. Its bytes, in the median of five pairs — the world, the result, the
// template's program laid out on the first run's listed states — measured
// 32–61 KB, with the race detector and without (425–490 KB while every
// template laid out states of its own); growing its rings from empty makes it
// 274 KB. The budget lies between.
func TestFreshTemplateGrowsNoRing(t *testing.T) {
	const budgetKB = 150
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
		t.Errorf("the second fresh template's run allocates %.1f KB, budget %d KB: it grew inbox rings or laid out states of its own", kb[2], budgetKB)
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
// without). The rank states come off a process-wide free list too, with the
// buffer caches the ranks get and put through. Measured 152 allocations and
// 15.1–16.0 KB at GOMAXPROCS 1, 2 and 4, with the race detector and without,
// on 2 vCPUs (151–154 and 15–21 KB while the template kept the states and every
// get and put took a shared list's lock; ≈500 KB when a collection emptied the
// arena, as a sync.Pool's did); both budgets leave about a tenth on top. At
// GOMAXPROCS 8 on those 2 vCPUs the bytes spread over 18–27 KB (18–23 KB with
// the template-kept states), above the budget.
func TestSteadyStateRunAllocs(t *testing.T) {
	const budget, budgetKB = 167, 18
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
