// Task-DAG execution mode: instead of running every TRSM/GEMM inline on
// the rank goroutine, each rank hands ready compute tasks (rankState.exec) to
// the shared internal/dense worker pool, overlapping them with the tree
// collectives. Sends and receives never move off the rank goroutine, so simmpi
// delivery order, the chaos adversary's decisions and the conservation
// counters are those of sequential mode, and every reduction folds in its
// fixed order (see redState): the result is byte-identical to a sequential
// run under any pool schedule. DESIGN.md §5i lists the scheduler invariants:
// a task's compute half may run anywhere, its finish half on the rank
// goroutine only; workers never block handing back a completion; the rank
// blocks on Recv only with no runnable or in-flight work; ready tasks
// dispatch highest critical-path height first, submission order breaking ties.
package pselinv

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"pselinv/internal/dense"
	"pselinv/internal/obs"
)

// dagTask is one scheduled task: the engine's value task plus the
// scheduler's bookkeeping, recycled through the rank's free list.
type dagTask struct {
	task
	prio int // critical-path height of the supernode; higher runs first
	seq  int // submission order; deterministic tiebreak

	// The one clock reading of the task's compute half, wherever it ran:
	// the scheduler's busy time and the task's span both come from it.
	t0        time.Time
	dur       time.Duration
	recovered any    // panic value captured on a worker, re-raised on the rank
	stack     []byte // worker stack at the recover site

	run func() // the worker-side half, built once per object (newTask)
}

// runsAfter orders the ready tasks: a before b when a is dispatched later,
// lower critical-path height first and later submission breaking ties.
func runsAfter(a, b *dagTask) int {
	return cmp.Or(cmp.Compare(a.prio, b.prio), cmp.Compare(b.seq, a.seq))
}

// dagSched drives one rank's task DAG. All methods run on the rank
// goroutine; only a task's run closure — its compute half — executes
// elsewhere. It stays with the rank's state from run to run, and its task
// objects and ready queue with it.
type dagSched struct {
	st       *rankState
	ready    []*dagTask // by runsAfter: the next to dispatch last
	free     []*dagTask // finished task objects, reused by submit
	comp     chan *dagTask
	inflight int
	seq      int
	started  time.Time
	stats    obs.DagRankStats
}

// dagSched returns the rank's scheduler, reset for a new run.
func (st *rankState) dagSched() *dagSched {
	if st.dag == nil {
		st.dag = &dagSched{st: st}
	}
	s := st.dag
	// A rank can have at most the pool's slot count of tasks in flight, so
	// this buffer guarantees workers never block handing back a completion —
	// even a rank parked in Recv cannot starve the pool.
	if cap(s.comp) <= dense.Workers() {
		s.comp = make(chan *dagTask, dense.Workers()+1)
	}
	s.seq, s.started, s.stats = 0, time.Now(), obs.DagRankStats{}
	return s
}

// submit queues a task and immediately tries to push ready work onto the
// pool.
func (s *dagSched) submit(t task) {
	dt := s.newTask()
	dt.task, dt.prio, dt.seq = t, s.st.e.tmpl.heights[t.k], s.seq
	s.seq++
	s.stats.Tasks++
	i, _ := slices.BinarySearchFunc(s.ready, dt, runsAfter)
	s.ready = slices.Insert(s.ready, i, dt)
	s.stats.MaxWidth = max(s.stats.MaxWidth, len(s.ready)+s.inflight)
	s.dispatch()
}

// dispatch moves ready tasks onto pool workers, highest priority first,
// until the pool refuses a slot.
func (s *dagSched) dispatch() {
	for len(s.ready) > 0 {
		if !dense.TrySubmit(s.ready[len(s.ready)-1].run) {
			return
		}
		pop(&s.ready)
		s.inflight++
		s.stats.Offloaded++
		s.stats.MaxInflight = max(s.stats.MaxInflight, s.inflight)
	}
}

// newTask returns a task object off the free list, or a new one with its
// worker closure: run the compute half, capture any panic, and hand the task
// back on the completion channel.
func (s *dagSched) newTask() *dagTask {
	if t := pop(&s.free); t != nil {
		return t
	}
	t := &dagTask{}
	t.run = func() {
		t.t0 = time.Now()
		defer func() {
			if r := recover(); r != nil {
				t.recovered, t.stack = r, debug.Stack()
			}
			t.dur = time.Since(t.t0)
			s.comp <- t
		}()
		s.st.compute(&t.task)
	}
	return t
}

// finish accounts a computed task's timing — busy time and, on an observed
// run, its span with the operands it waited on — applies its bookkeeping and
// only then, since that submits further tasks, recycles the object.
func (s *dagSched) finish(t *dagTask) {
	s.stats.BusyNS += int64(t.dur)
	if c := s.st.e.Obs; c != nil {
		c.Span(s.st.r.ID, t.span, t.k, "", t.deps(), t.t0, t.dur)
	}
	s.st.finish(&t.task)
	t.task = task{} // drop the operand references
	s.free = append(s.free, t)
}

// runInline executes a task on the rank goroutine (pool saturated, or the
// degenerate single-worker configuration where TrySubmit never succeeds).
func (s *dagSched) runInline(t *dagTask) {
	t.t0 = time.Now()
	s.st.compute(&t.task)
	t.dur = time.Since(t.t0)
	s.finish(t)
}

// complete applies a finished task's bookkeeping on the rank goroutine,
// re-raising any panic the worker captured.
func (s *dagSched) complete(t *dagTask) {
	s.inflight--
	if t.recovered != nil {
		panic(fmt.Sprintf("pselinv: dag task %s K=%d panicked on a pool worker: %v\n%s",
			t.span, t.k, t.recovered, t.stack))
	}
	s.finish(t)
}

// drainCompletions applies every already-finished task without blocking.
func (s *dagSched) drainCompletions() bool {
	progressed := false
	for {
		select {
		case t := <-s.comp:
			s.complete(t)
			progressed = true
		default:
			return progressed
		}
	}
}

// loop is the DAG-mode event loop of either pass. Structurally it receives
// the same n messages as the sequential loop and performs the same sends
// from the same handlers; the difference is that GEMM-sized compute detours
// through the scheduler, and the loop interleaves three progress sources —
// task completions, arrived messages, ready tasks — blocking only when none
// can advance. It returns once every message is handled and every task has
// finished (pass 1 relies on that: the normalized L̂/Û blocks are final before
// any pass-2 message aliases their storage).
func (s *dagSched) loop(n int) {
	st := s.st
	got := 0
	for got < n || s.inflight > 0 || len(s.ready) > 0 {
		s.dispatch()
		progressed := s.drainCompletions()
		for got < n {
			msg, ok := st.r.TryRecv()
			if !ok {
				break
			}
			st.handle(msg)
			got++
			progressed = true
		}
		if progressed {
			continue
		}
		switch {
		case s.inflight > 0:
			// Blocking here is safe: a worker always finishes. Blocking
			// on Recv here would not be — this task's finish may carry
			// the send a peer is waiting for.
			s.complete(<-s.comp)
		case len(s.ready) > 0:
			// Pool saturated and nothing else to do: help out.
			s.runInline(pop(&s.ready))
		default:
			st.handle(st.recv())
			got++
		}
	}
	s.stats.Rank = st.r.ID
	s.stats.WallNS = int64(time.Since(s.started))
	if s.stats.WallNS > 0 {
		s.stats.Occupancy = float64(s.stats.BusyNS) / float64(s.stats.WallNS)
	}
}
