// Package pselinv is the distributed-memory parallel selected inversion
// engine: the paper's PSelInv algorithm running over the simulated
// message-passing world of internal/simmpi, with restricted collectives
// organized by the tree schemes of internal/core.
//
// The engine is fully asynchronous within each pass, exactly as §II-B
// describes: there are no barriers between supernodes; synchronization is
// imposed only through data dependencies. Each rank runs an event loop
// that receives messages in whatever order they arrive, forwards broadcast
// data to its tree children, accumulates reduction contributions, executes
// local GEMMs the moment their operands (a broadcast L̂ block and a
// finalized A⁻¹ block) are available, and finalizes blocks it owns.
// Supernodes on disjoint critical paths of the elimination tree therefore
// proceed concurrently and pipeline.
//
// Nothing is looked up by name during a run: core.Compile numbers what a rank
// touches into dense slots (its core.Program), and the run state is flat arrays
// over them, kept on the template and recycled across runs (DESIGN.md §5p).
package pselinv

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pselinv/internal/blockmat"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/factor"
	"pselinv/internal/obs"
	"pselinv/internal/simmpi"
)

// template is what NewEngine derives from the plan and Rebind shares: the
// compiled programs (core.Compile) and the run states of finished runs.
type template struct {
	programs []*core.Program
	heights  []int // elimination-tree height per supernode: the DAG dispatch priority
	mu       sync.Mutex
	idle     [][]*rankState // cleared state sets of successful runs, at most maxIdleStates
}

const maxIdleStates = 4

// Engine executes parallel selected inversion for one (plan, factorization)
// pair. It is safe to Run multiple times, also concurrently: each run has its
// own state, an earlier run's when there is one.
type Engine struct {
	Plan *core.Plan
	LU   *factor.LU
	tmpl *template // immutable apart from its free list; shared by Rebind
	// Obs, when non-nil, observes the run: it is installed on the run's
	// world for per-message telemetry, the rank goroutines append their
	// spans to it, and the result carries one snapshot per local rank. Its
	// state is per-run: set a fresh collector before every Run. Nil costs
	// the hot path one pointer check per span site.
	Obs *obs.Collector
	// DAG schedules each rank's TRSM/GEMM-sized compute as a task DAG on
	// the shared dense worker pool (see dag.go), overlapping it with the
	// collectives, which stay on the rank goroutine. Reductions fold in the
	// same fixed order either way (see redState): byte-identical results.
	DAG bool
}

// NewEngine compiles the per-rank programs of the plan.
func NewEngine(plan *core.Plan, lu *factor.LU) *Engine {
	tm := &template{programs: core.Compile(plan), heights: core.SnodeHeights(plan.BP.SnParent)}
	return &Engine{Plan: plan, LU: lu, tmpl: tm}
}

// Rebind returns a copy of the engine bound to a different numeric
// factorization. The template — the programs, the expensive part of NewEngine,
// and the run states they lay out — is shared with the receiver; the programs
// are immutable and every run takes its own state, so rebound engines may run
// concurrently. This is the warm path of a plan cache: same sparsity pattern,
// new values. Obs and DAG are reset on the copy so per-run
// instrumentation and execution modes never leak between requests.
func (e *Engine) Rebind(lu *factor.LU) *Engine {
	return &Engine{Plan: e.Plan, LU: lu, tmpl: e.tmpl}
}

// RunResult carries the outcome of a distributed run.
type RunResult struct {
	// Ainv is the selected inverse gathered from all ranks. Its blocks are
	// arena-backed; call Release when they are no longer referenced so
	// repeated runs recycle their storage.
	Ainv *blockmat.BlockMatrix
	// World retains the per-rank, per-class communication volume counters.
	World *simmpi.World
	// Elapsed is the wall-clock duration of the parallel section.
	Elapsed time.Duration
	// Dag holds the per-rank task-DAG scheduler statistics of a run with
	// Engine.DAG set, ordered by rank (nil otherwise, and nil for ranks
	// hosted in other processes on a distributed transport).
	Dag []obs.DagRankStats
	// Snapshots is the record of a run with Engine.Obs set: one complete
	// snapshot per local rank, ordered by rank, ready for obs.Merge (a
	// distributed worker adds its clock measurements first).
	Snapshots []*obs.Snapshot
}

// Release returns the gathered A⁻¹ blocks to the dense kernel arena. The
// Ainv field (and any matrix obtained from it) must not be used afterwards.
func (rr *RunResult) Release() {
	if rr.Ainv == nil {
		return
	}
	rr.Ainv.Release()
	rr.Ainv = nil
}

// Run executes the two passes on a fresh in-process world and gathers the
// result; for any other transport, or a world with a delivery adversary
// installed, build the world and use RunWorld. On error the world is closed.
func (e *Engine) Run(timeout time.Duration) (*RunResult, error) {
	world := simmpi.NewWorld(e.Plan.Grid.Size())
	res, err := e.RunWorld(world, timeout)
	if err != nil {
		world.Close()
	}
	return res, err
}

// RunWorld executes the two passes on a caller-supplied world (with any
// adversary already installed; Obs is installed here) and gathers the
// result. A timeout's error carries the hung-run report (report.go): where
// every rank was blocked, who panicked, and each message still in flight
// with the receiver's place in its collective's tree. A malformed message
// (see messageError) closes the world and fails the run at once.
//
// With a distributed transport underneath the world (one rank per process),
// only the world's local ranks execute and the result gathers only their A⁻¹
// blocks; volume conservation is then a cross-process property the launcher
// checks (see internal/distrun), so the local check is skipped.
//
// A symmetric plan needs symmetric values, real or complex (A − zI is
// symmetric under the plain transpose): on asymmetric ones the run fails with
// a symmetryError before a message is sent. The general plan is correct for
// either, at ×1.7 the bytes.
func (e *Engine) RunWorld(world *simmpi.World, timeout time.Duration) (*RunResult, error) {
	if e.Plan.Symmetric && !e.LU.Symmetric {
		return nil, symmetryError{fmt.Errorf("pselinv: symmetric plan bound to a %s factorization of asymmetric values (plan with Symmetric = LU.Symmetric)", e.LU.Elem)}
	}
	if e.Obs != nil {
		world.SetObserver(e.Obs)
	}
	// The state goes back to the template, and an in-process world's inbox
	// rings to simmpi's free list, only after a successful gather: a failed or
	// timed-out run leaves anything in them, its ranks maybe running.
	states := e.tmpl.takeStates()
	scheme := e.Plan.Scheme.String()
	// A malformed message fails the run with the detecting rank's
	// messageError: that rank closes the world, which unblocks its peers,
	// whose own unwinding is then not a second failure.
	var bad atomic.Pointer[messageError]
	start := time.Now()
	err := world.Run(timeout, func(r *simmpi.Rank) {
		defer func() {
			p := recover()
			if re, ok := p.(*messageError); ok && bad.CompareAndSwap(nil, re) {
				world.Close()
			}
			if p != nil && bad.Load() == nil {
				panic(p)
			}
		}()
		// Label the rank goroutine so CPU profiles (pselinvd -pprof)
		// attribute samples to simulated ranks and tree schemes.
		labels := pprof.Labels("pselinv_rank", strconv.Itoa(r.ID), "pselinv_scheme", scheme)
		pprof.Do(context.Background(), labels, func(context.Context) {
			st := e.bind(states, r)
			st.runPass1()
			// A refusing rank's Close ends the barrier early: peers may still read pass-1 payloads.
			if r.Barrier(); bad.Load() == nil {
				st.runPass2()
			}
		})
	})
	elapsed := time.Since(start)
	if re := bad.Load(); re != nil {
		return nil, re
	}
	if te, ok := err.(*simmpi.TimeoutError); ok {
		// Taken before anyone closes the world, which releases the blocked
		// goroutines the report is about.
		return nil, fmt.Errorf("%w\n%s", err, e.postMortem(world, te))
	}
	if err != nil {
		return nil, err
	}
	if world.AllLocal() {
		if cerr := world.CheckConservation(); cerr != nil {
			return nil, cerr
		}
	}
	res := &RunResult{Ainv: blockmat.New(e.Plan.BP), World: world, Elapsed: elapsed}
	var loads []core.RankLoad
	if e.Obs != nil {
		loads = e.Plan.RankLoads()
	}
	for _, r := range world.LocalRanks() {
		st := states[r]
		for v, m := range st.ainv {
			i, j := e.Plan.BP.Block(int(st.prog.Ainv[v]))
			res.Ainv.Set(i, j, m)
		}
		if st.sched != nil {
			res.Dag = append(res.Dag, st.sched.stats)
		}
		if e.Obs != nil {
			snap := e.Obs.EncodeRank(r)
			snap.WallNS = elapsed.Nanoseconds()
			snap.PlanFlops, snap.PlanNNZ = loads[r].Flops, loads[r].NNZ
			snap.Balancer = e.Plan.Balancer.Slug()
			if st.sched != nil {
				d := st.sched.stats
				snap.Dag = &d
			}
			res.Snapshots = append(res.Snapshots, snap)
		}
		st.clear()
	}
	if tr, ok := world.Transport().(interface{ ReclaimRings() }); ok { // simmpi.InProc, or a transport wrapping one
		tr.ReclaimRings()
	}
	e.tmpl.mu.Lock()
	if len(e.tmpl.idle) < maxIdleStates {
		e.tmpl.idle = append(e.tmpl.idle, states)
	}
	e.tmpl.mu.Unlock()
	return res, nil
}

// takeStates returns a cleared state set off the template's free list, or an
// empty one: each rank's state is laid out by the first run that needs it.
func (tm *template) takeStates() (set []*rankState) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if n := len(tm.idle); n > 0 {
		set, tm.idle = tm.idle[n-1], tm.idle[:n-1]
		return set
	}
	return make([]*rankState, len(tm.programs))
}

// redState tracks one reduction at one rank. Every participant folds the same
// way: its own contributions in ascending canonical slot (fold positions
// [0, NLocal)), then its children's partial sums in Tree.Children order
// (positions [NLocal, n)), and sends the one resulting block to its parent.
// The bracketing is a property of the plan alone, so the result is
// bit-identical under any delivery order, chaos seed, DAG pool schedule and
// transport (DESIGN.md §5e).
//
// It holds only what a run mutates (32 bytes). A contribution that finishes
// ahead of its turn waits in parts, one of the rank's spares from the first
// such arrival to completion — a local one in the private scratch matrix its
// GEMM wrote (the race-freedom concurrent DAG tasks need), a child's payload
// by reference — and the in-order prefix is folded eagerly. The lowest local
// slot computes straight into sum, which is arena-backed: taken on the run's
// first touch (reduction), nil again at completion, when ownership moves to
// the parent's mailbox, the finalized ainv block or back to the arena.
//
// A packed reduction — a symmetric plan's Diag-Reduce — folds and sends lower
// triangles: each local contribution is packed in place (dense.PackLower)
// once computed, so sum's prefix of redWords is the packed partial sum.
type redState struct {
	*core.CollRole // the plan's reduction, and the rank's place in it
	sum            *dense.Matrix
	parts          *[][]float64 // by fold position
	next           int32        // first fold position not yet in sum; redDone once complete
}

const redDone = math.MaxInt32 // the next fold position of a completed reduction

// n is the reduction's number of fold positions.
func (red *redState) n() int32 { return red.NLocal + int32(len(red.Kids())) }

// packed reports whether red folds and sends lower triangles.
func (st *rankState) packed(red *redState) bool {
	return st.e.Plan.Symmetric && red.Op.Kind == core.OpDiagReduce
}

// redWords is the length of a contribution to red as folded and sent.
func (st *rankState) redWords(red *redState) int {
	if st.packed(red) {
		return dense.PackedLen(red.sum.Rows) * red.sum.Width()
	}
	return len(red.sum.Data)
}

// fold takes the finished contribution at fold position pos — nil for the
// lowest local slot, which is sum itself — and adds it, with any successors
// already waiting, to sum when its turn has come. It owns data from here on.
func (st *rankState) fold(red *redState, pos int32, data []float64) {
	n := red.n()
	if pos != red.next {
		if red.parts == nil {
			if k := len(st.spare); k > 0 {
				red.parts, st.spare = st.spare[k-1], st.spare[:k-1]
			} else {
				red.parts = new([][]float64)
			}
			*red.parts = slices.Grow((*red.parts)[:0], int(n))[:n] // entries past any earlier length are nil too
		}
		(*red.parts)[pos] = data
		return
	}
	for {
		if data != nil {
			for i, v := range data {
				red.sum.Data[i] += v
			}
			dense.PutBuf(data)
		}
		red.next++
		if red.parts == nil || red.next == n || (*red.parts)[red.next] == nil {
			return
		}
		data, (*red.parts)[red.next] = (*red.parts)[red.next], nil
	}
}

// localOut returns the matrix the local contribution at fold position pos
// accumulates into: sum for the lowest slot, a zeroed scratch otherwise.
func (red *redState) localOut(pos int32) *dense.Matrix {
	if pos == 0 {
		return red.sum
	}
	return dense.GetMatrixElem(red.sum.Rows, red.sum.Cols, red.sum.Elem)
}

// localDone folds a finished local contribution written into out (obtained
// from localOut for the same pos).
func (st *rankState) localDone(red *redState, pos int32, out *dense.Matrix) {
	if st.packed(red) {
		dense.PackLower(out, out.Data[:st.redWords(red)])
	}
	if pos == 0 {
		st.fold(red, 0, nil)
		return
	}
	data := out.Data[:st.redWords(red)]
	out.Data = nil
	dense.PutMatrix(out) // the header only; fold recycles the buffer
	st.fold(red, pos, data)
}

// symmetryError reports a symmetric plan bound to a factorization of
// asymmetric values: the symmetric program mirrors A⁻¹_{J,K} into (K,J) and
// uses L̂ᵀ for Û, so it would return a wrong inverse with no other symptom.
type symmetryError struct{ error }

// messageError reports a message that names no group's first block at its
// receiver, whose payload is not the group's blocks, that fills a slot a second
// time, or a reduce message that cannot belong to the collective its tag names.
// It fails the run instead of indexing past a table or corrupting the fold.
type messageError struct {
	Kind      core.OpKind
	K, Blk    int
	Src, Rank int
	Reason    string
}

func (e *messageError) Error() string {
	return fmt.Sprintf("pselinv: %v K=%d blk=%d: bad payload from rank %d at rank %d: %s",
		e.Kind, e.K, e.Blk, e.Src, e.Rank, e.Reason)
}

// childArrived folds a child's partial sum into red. Reduce payloads
// transfer buffer ownership to the receiver; fold recycles them. The sender
// must be a child of this rank in the reduction's tree that has not
// delivered yet.
func (st *rankState) childArrived(red *redState, msg simmpi.Message) {
	pos := red.NLocal + int32(slices.Index(red.Kids(), msg.Src))
	switch {
	case pos < red.NLocal:
		st.refuse(msg, "sender is not a child of the receiver in the collective's tree")
	case pos < red.next || red.parts != nil && (*red.parts)[pos] != nil:
		st.refuse(msg, "second payload from this child")
	}
	st.fold(red, pos, msg.Data)
}

// refuse fails the run on msg (see messageError).
func (st *rankState) refuse(msg simmpi.Message, reason string) {
	kind, k, blk := core.DecodeOpKey(msg.Tag)
	panic(&messageError{Kind: kind, K: k, Blk: blk, Src: msg.Src, Rank: st.r.ID, Reason: reason})
}

// wire says how each plan op kind appears outside the engine — its accounting
// class and the span its tree forwarding runs under — and which side of
// the second loop it belongs to. The general path's pass-1 row broadcast is
// accounted with the column broadcast, and its Û cross-sends with the L̂ ones.
var wire = [...]struct {
	class simmpi.Class
	span  string
	side  core.Side
}{
	core.OpDiagBcast:    {simmpi.ClassDiagBcast, "diag-bcast", core.Lower},
	core.OpCrossSend:    {simmpi.ClassCrossSend, "", core.Lower},
	core.OpColBcast:     {simmpi.ClassColBcast, "col-bcast", core.Lower},
	core.OpRowReduce:    {simmpi.ClassRowReduce, "row-reduce", core.Lower},
	core.OpDiagReduce:   {simmpi.ClassDiagReduce, "diag-reduce", core.Lower},
	core.OpSymmSend:     {simmpi.ClassSymmSend, "", core.Lower},
	core.OpDiagBcastRow: {simmpi.ClassDiagBcast, "diag-bcast", core.Upper},
	core.OpCrossSendU:   {simmpi.ClassCrossSend, "", core.Upper},
	core.OpRowBcast:     {simmpi.ClassRowBcast, "row-bcast", core.Upper},
	core.OpColReduce:    {simmpi.ClassColReduce, "col-reduce", core.Upper},
}

// sideNames holds what the two sides call the same thing: the compute span
// kinds and the dependency annotations of DAG task spans.
var sideNames = [2]struct{ trsm, gemm, diagDep, bcDep string }{
	core.Lower: {"trsm", "gemm", "diag-bcast", "bcast"},
	core.Upper: {"trsm-u", "gemm-u", "diag-bcast-row", "bcast-u"},
}

// sideState is a rank's mutable state on one side, by the slots of its
// sideProgram. An arrived payload is wrapped in the header stored at its
// slot, so a message costs no allocation; nil Data means not arrived yet.
type sideState struct {
	hat      []*dense.Matrix // owned normalized blocks L̂_{I,K} | Û_{K,I} (pass 1 output)
	bcast    []dense.Matrix  // the same blocks, and diagonal factors, as received
	taskDone []bool
}

// rankState is the mutable per-rank runtime state: laid out once per
// template from the rank's program, bound to a run by Engine.bind, and
// cleared for the next run after a successful gather.
type rankState struct {
	e    *Engine // e.tmpl is the template the state was laid out for
	r    *simmpi.Rank
	prog *core.Program

	side [2]sideState
	ainv []*dense.Matrix // finalized owned A⁻¹ blocks, nil until final
	red  []redState
	bufs [][]float64 // the cross-send groups this rank sent, which receivers alias

	// sched, non-nil iff Engine.DAG, detours TRSM/GEMM-sized compute
	// through the worker-pool task scheduler (see dag.go); dag keeps the
	// scheduler, with its task free list and heap, for the next DAG run.
	sched, dag *dagSched

	// elem caches the factorization's element type: every payload and
	// arena request below is a rows×cols block of it.
	elem dense.Elem

	// spare holds the fold-position slices of completed reductions, for the
	// next reduction whose contributions arrive out of turn (redState.parts).
	spare []*[][]float64
}

// bind binds rank r's state in the set to this run, laying it out when no
// earlier run has: slices sized exactly by what the rank touches.
func (e *Engine) bind(states []*rankState, r *simmpi.Rank) *rankState {
	st := states[r.ID]
	if st == nil {
		prog := e.tmpl.programs[r.ID]
		st = &rankState{prog: prog, ainv: make([]*dense.Matrix, len(prog.Ainv)),
			red: make([]redState, len(prog.Reds))}
		for x := range st.red {
			st.red[x] = redState{CollRole: &prog.Reds[x]}
		}
		for s, ps := range prog.Side {
			st.side[s] = sideState{hat: make([]*dense.Matrix, len(ps.Cross)),
				bcast: make([]dense.Matrix, len(ps.Bcasts)), taskDone: make([]bool, len(ps.Tasks))}
		}
		states[r.ID] = st
	}
	st.e, st.r, st.elem, st.sched = e, r, e.LU.Elem, nil
	if e.DAG {
		st.sched = st.dagSched()
	}
	return st
}

// clear makes the state of a successful run ready for the next one. The L̂/Û
// copies of pass 1 go back to the kernel arena — only now that every rank has
// finished: the broadcast headers of other ranks alias them zero-copy (and
// are dropped, not released). The A⁻¹ blocks belong to the RunResult; every
// reduction has completed, so its sum has moved on and its parts are spare.
func (st *rankState) clear() {
	for s := range st.side {
		ss := &st.side[s]
		for _, m := range ss.hat {
			dense.PutMatrix(m)
		}
		clear(ss.hat)
		clear(ss.bcast)
		clear(ss.taskDone)
	}
	clear(st.ainv)
	for _, b := range st.bufs {
		dense.PutBuf(b)
	}
	st.bufs = st.bufs[:0]
	for x := range st.red {
		st.red[x].next = 0
	}
	st.e, st.r = nil, nil
}

func (st *rankState) width(k int) int { return st.e.Plan.BP.Part.Width(k) }

// words is the length of the payload a message of kind on block (blk, k)
// carries: the block in the factorization's element type, a diagonal one as
// its packed lower triangle on a symmetric plan.
func (st *rankState) words(kind core.OpKind, k, blk int) int {
	if st.e.Plan.Symmetric && (kind == core.OpDiagBcast || kind == core.OpDiagReduce) {
		return dense.PackedLen(st.width(k)) * st.elem.Width()
	}
	return st.width(blk) * st.width(k) * st.elem.Width()
}

// block wraps an arrived payload as the rows×cols block it is.
func (st *rankState) block(rows, cols int, data []float64) dense.Matrix {
	return dense.Matrix{Rows: rows, Cols: cols, Elem: st.elem, Data: data}
}

// --- Compute: value tasks, one site per kernel -----------------------------

type kernel uint8

const (
	kTrsm        kernel = iota // out = the side's normalization of out against a
	kGemm                      // out += op(a)·b, a contribution to reduction red
	kDiagInverse               // out = A_KK⁻¹ − a (a may be nil)
)

// task describes one unit of TRSM/GEMM-sized compute by value: the kernel,
// its operands and output, and what completes when it has run. exec either
// runs it on the spot or hands it to the DAG scheduler, so every kernel call
// is written once (compute) and its bookkeeping once (finish). A value, not
// closures: a sequential run executes tens of thousands without allocating.
type task struct {
	kernel kernel
	ta     dense.Trans // kGemm: transpose a
	side   core.Side   // kTrsm: the variant; kGemm: orients the annotation
	span   string      // span kind
	k      int         // supernode: span label and DAG priority
	i, j   int         // kGemm: broadcast block and A⁻¹ position, for the annotation

	a, b, out *dense.Matrix
	red       *redState // kGemm: the reduction out contributes to, at fold position pos
	pos       int32
}

// exec runs t: inline on the rank goroutine, or — the one place the engine
// asks which mode it is in — through the DAG scheduler.
func (st *rankState) exec(t task) {
	if st.sched != nil {
		st.sched.submit(t)
		return
	}
	t0 := st.spanStart()
	st.compute(&t)
	st.spanEnd(t.span, t.k, "", t0)
	st.finish(&t)
}

// spanStart reads the clock for a span the rank goroutine is about to run
// inline; an unobserved run reads nothing.
func (st *rankState) spanStart() (t0 time.Time) {
	if st.e.Obs != nil {
		t0 = time.Now()
	}
	return t0
}

// spanEnd appends the span begun at t0 (an inline one: no dependency
// annotation) to this rank's timeline.
func (st *rankState) spanEnd(kind string, k int, role string, t0 time.Time) {
	if st.e.Obs != nil {
		st.e.Obs.Span(st.r.ID, kind, k, role, "", t0, time.Since(t0))
	}
}

// compute is the pure-compute half of a task: it touches only the task's
// output, which nothing else aliases until finish, so it may run on any
// goroutine.
func (st *rankState) compute(t *task) {
	switch t.kernel {
	case kTrsm:
		if t.side == core.Lower {
			// L̂_{I,K} = L_{I,K}·L_KK⁻¹: right solve against the unit lower factor.
			dense.Trsm(dense.Right, dense.Lower, dense.NoTrans, dense.Unit, t.a, t.out)
		} else {
			// Û_{K,I} = U_KK⁻¹·U_{K,I}: left solve against the upper factor.
			dense.Trsm(dense.Left, dense.Upper, dense.NoTrans, dense.NonUnit, t.a, t.out)
		}
	case kGemm:
		dense.Gemm(t.ta, dense.NoTrans, 1, t.a, t.b, 1, t.out)
	case kDiagInverse:
		st.e.LU.DiagInverseTo(t.k, t.out)
		if t.a != nil {
			t.out.AddScaled(-1, t.a)
		}
	}
}

// finish is the bookkeeping half, on the rank goroutine only: it folds
// reductions, finalizes blocks, sends messages and fires further tasks.
func (st *rankState) finish(t *task) {
	switch t.kernel {
	case kGemm:
		st.localDone(t.red, t.pos, t.out)
		st.maybeComplete(t.red)
	case kDiagInverse:
		if t.a != nil {
			dense.PutMatrix(t.a)
		}
		st.finalize(st.prog.AinvSlot[core.Lower][st.prog.First[t.k]], t.out)
	}
}

// deps renders the operands a task waited on, for DAG task spans.
func (t *task) deps() string {
	switch {
	case t.kernel == kTrsm:
		return fmt.Sprintf("%s(%d)", sideNames[t.side].diagDep, t.k)
	case t.kernel == kGemm && t.ta == dense.DoTrans:
		return fmt.Sprintf("lhat(%d,%d) rowred(%d,%d)", t.i, t.k, t.k, t.i)
	case t.kernel == kGemm:
		row, col := t.side.Block(t.j, t.i)
		return fmt.Sprintf("%s(%d,%d) ainv(%d,%d)", sideNames[t.side].bcDep, t.k, t.i, row, col)
	case t.a != nil:
		return fmt.Sprintf("diag-reduce(%d)", t.k)
	}
	return "ready"
}

// --- The two passes ---------------------------------------------------------

// recvAll receives and handles n messages: sequentially a blocking-Recv
// loop, in DAG mode the scheduler's three-source loop, which also runs every
// task to completion before it returns.
func (st *rankState) recvAll(n int) {
	if st.sched != nil {
		st.sched.loop(n)
		return
	}
	for got := 0; got < n; got++ {
		st.handle(st.recv())
	}
}

func (st *rankState) recv() simmpi.Message {
	msg, ok := st.r.Recv()
	if !ok {
		panic("pselinv: world closed mid-run")
	}
	return msg
}

// runPass1 broadcasts each diagonal factor — on a symmetric plan its packed
// lower triangle — and normalizes the factor blocks against it. Every TRSM
// has completed when it returns — in DAG mode too, where the solves of
// late-arriving broadcasts overlapped the receive waits: pass 2 sends L̂/Û
// buffers zero-copy, so they must be final first.
func (st *rankState) runPass1() {
	for _, k := range st.prog.DiagRoots {
		dk := st.e.LU.Diag(k)
		for _, s := range st.e.Plan.Sides() {
			payload := dk.Data
			if st.e.Plan.Symmetric {
				payload = dense.GetBuf(dense.PackedLen(dk.Rows) * dk.Width())
				dense.PackLower(dk, payload)
				st.side[s].bcast[st.prog.Side[s].Roles[st.prog.Snode[k]].Diag].Data = payload
			}
			st.diagArrived(s, k, payload, dk)
		}
	}
	st.recvAll(st.prog.Expect1)
}

// diagArrived forwards the pass-1 payload of supernode k down side s's
// broadcast (the column on the lower side, the row on the upper) and
// normalizes every factor block this rank owns there against dk, the root's
// own factor — a receiver's is the payload, wrapped or unpacked in its slot.
func (st *rankState) diagArrived(s core.Side, k int, payload []float64, dk *dense.Matrix) {
	ps := &st.prog.Side[s]
	ro := &ps.Roles[st.prog.Snode[k]]
	st.forward(&ps.Bcasts[ro.Diag], payload)
	if dk == nil && ro.Own > 0 {
		w, slot := st.width(k), &st.side[s].bcast[ro.Diag]
		if st.e.Plan.Symmetric {
			*slot = dense.Matrix{Rows: w, Cols: w, Elem: st.elem, Data: dense.GetBuf(w * w * st.elem.Width())}
			dense.UnpackLower(payload, slot)
		} else {
			*slot = st.block(w, w, payload)
		}
		dk = slot
	}
	for h := ro.Hat; h < ro.Hat+ro.Own; h++ {
		i := ps.Cross[h].Blk
		var x *dense.Matrix
		if s == core.Upper {
			x = st.e.LU.UCopy(k, i) // formed from L_{I,K} when the values are symmetric
		} else if fb, ok := st.e.LU.LBlock(i, k); ok {
			x = dense.GetMatrixCopy(fb)
		}
		if x == nil {
			panic(fmt.Sprintf("pselinv: plan references missing factor block (%d,%d) of side %d", i, k, s))
		}
		// The slot is filled here so pass 2 finds the block even when the
		// solve fills it on a worker.
		st.side[s].hat[h] = x
		st.exec(task{kernel: kTrsm, side: s, span: sideNames[s].trsm, k: k, a: dk, out: x})
	}
}

// forward sends payload to this rank's children in broadcast cr, under a
// collective span tagged with the rank's role in the tree. The span covers
// only the message handling, not the compute it unblocks.
func (st *rankState) forward(cr *core.CollRole, payload []float64) {
	t0 := st.spanStart()
	for _, c := range cr.Kids() {
		st.r.Send(c, core.OpKey(cr.Op.Kind, cr.Op.K, cr.Op.Blk), wire[cr.Op.Kind].class, payload)
	}
	st.collSpanEnd(cr, t0)
}

// collSpanEnd closes the span of this rank's part in collective cr.
func (st *rankState) collSpanEnd(cr *core.CollRole, t0 time.Time) {
	if st.e.Obs == nil {
		return
	}
	role := "leaf"
	switch {
	case cr.Parent < 0:
		role = "root"
	case len(cr.Kids()) > 0:
		role = "forwarder"
	}
	st.spanEnd(wire[cr.Op.Kind].span, cr.Op.K, role, t0)
}

// runPass2 is the asynchronous selected inversion proper. Past the barrier no
// rank reads a pass-1 payload, so it first hands a symmetric plan's diagonal
// factors — the packed one a root sent, one a receiver unpacked: the diagonal
// slots' buffers — back to the kernel arena for pass 2 to reuse. Its initial
// local actions are the leaf diagonals and the cross-sends of the ready L̂/Û.
func (st *rankState) runPass2() {
	for _, ro := range st.prog.Side[core.Lower].Roles {
		if ro.Diag >= 0 && st.e.Plan.Symmetric {
			dense.PutBuf(st.side[core.Lower].bcast[ro.Diag].Data)
		}
	}
	for _, k := range st.prog.LeafDiags {
		inv := dense.GetMatrixUninitElem(st.width(k), st.width(k), st.elem)
		st.exec(task{kernel: kDiagInverse, span: "diag-inverse", k: k, out: inv})
	}
	for _, s := range st.e.Plan.Sides() {
		for h, cr := range st.prog.Side[s].Cross {
			po, data := cr.Op, st.side[s].hat[h].Data
			if cr.Blk != po.Blk {
				continue // the group goes with its first block
			}
			if len(po.Blks) > 1 { // back to back, in a buffer the receivers alias till the state is cleared
				pos := func(b int) int32 { id, _ := st.e.Plan.BP.Slot(b, po.K); return st.prog.Pos[s][id] }
				hat, n := st.side[s].hat[int32(h)-pos(po.Blk):], 0
				for _, b := range po.Blks {
					n += len(hat[pos(b)].Data)
				}
				data = dense.GetBuf(n)[:0]
				for _, b := range po.Blks {
					data = append(data, hat[pos(b)].Data...)
				}
				st.bufs = append(st.bufs, data)
			}
			st.r.Send(po.Dst, core.OpKey(po.Kind, po.K, po.Blk), wire[po.Kind].class, data)
		}
	}
	st.recvAll(st.prog.Expect2)
}

// handle resolves an arrived message — a group's blocks back to back, its tag
// naming the first — to this rank's slots (core.Program.Slot) and acts on it.
// Any other tag, or a payload that is not the group's blocks, fails the run.
func (st *rankState) handle(msg simmpi.Message) {
	kind, k, blk := core.DecodeOpKey(msg.Tag)
	v, blks, _ := st.prog.Slot(kind, k, blk)
	if blks == nil {
		st.refuse(msg, "no such slot at the receiver, or the tag names a block that is not its group's first")
	}
	want := 0
	for _, b := range blks {
		want += st.words(kind, k, b)
	}
	if len(msg.Data) != want {
		st.refuse(msg, fmt.Sprintf("%d words, want %d", len(msg.Data), want))
	}
	s, w := wire[kind].side, st.width(k)
	ps, ss := &st.prog.Side[s], &st.side[s]
	switch kind {
	case core.OpDiagBcast, core.OpDiagBcastRow:
		st.diagArrived(s, k, msg.Data, nil)
	case core.OpCrossSend, core.OpColBcast, core.OpCrossSendU, core.OpRowBcast:
		// The normalized blocks L̂_{I,K} | Û_{K,I} arrive — by cross-send at
		// their broadcast root, else from the tree parent: forward them down
		// the tree (processor column I | row I), store them and fire the
		// products whose A⁻¹ operand is already final.
		if ss.bcast[v].Data != nil {
			st.refuse(msg, "second payload into a filled broadcast slot")
		}
		st.forward(&ps.Bcasts[v], msg.Data)
		ro, off := &ps.Roles[st.prog.Snode[k]], 0
		for _, b := range blks { // each block of the group into its own slot
			v, _, _ := st.prog.Slot(kind, k, b)
			rows, cols := s.Block(st.width(b), w)
			n := st.words(kind, k, b)
			ss.bcast[v], off = st.block(rows, cols, msg.Data[off:off+n]), off+n
			x := v - ro.Bcast
			for ti := ro.Task + x*ro.Own; ti < ro.Task+(x+1)*ro.Own; ti++ {
				st.tryRun(s, ti)
			}
			if kind == core.OpCrossSendU {
				// The row-broadcast root is also the Row-Reduce root for block
				// (I,K), so the diagonal contribution for it may now fire.
				st.tryDiagContrib(st.prog.Side[core.Lower].Roles[st.prog.Snode[k]].Hat + st.prog.Pos[core.Lower][ps.Bcasts[v].ID])
			}
		}
	case core.OpRowReduce, core.OpColReduce, core.OpDiagReduce:
		red := st.reduction(v)
		st.childArrived(red, msg)
		st.maybeComplete(red)
	case core.OpSymmSend:
		// Finalized A⁻¹_{J,K} arrives at the owner of (K, J); mirror it.
		// The payload is the sender's finalized block (not ours to recycle).
		if st.ainv[v] != nil {
			st.refuse(msg, "second payload into a final A⁻¹ block")
		}
		low := st.block(st.width(blk), w, msg.Data)
		up := dense.GetMatrixUninitElem(low.Cols, low.Rows, low.Elem)
		low.TransposeInto(up)
		st.finalize(v, up)
	}
}

// finalize records the owned A⁻¹ block of slot v and fires any GEMM waiting
// on it.
func (st *rankState) finalize(v int32, m *dense.Matrix) {
	if st.ainv[v] != nil {
		i, j := st.e.Plan.BP.Block(int(st.prog.Ainv[v]))
		panic(fmt.Sprintf("pselinv: block (%d,%d) finalized twice", i, j))
	}
	st.ainv[v] = m
	for w := st.prog.Waiters[v]; w != 0; {
		s, ti := core.Side((w-1)&1), (w-1)>>1
		w = st.prog.Side[s].Tasks[ti].Next
		st.tryRun(s, ti)
	}
}

// tryRun executes side s's GEMM task ti when both operands are available,
// accumulating into the reduction for (K,J): A⁻¹_{J,I}·L̂_{I,K} into
// Row-Reduce on the lower side, Û_{K,I}·A⁻¹_{I,J} into Col-Reduce on the
// upper.
func (st *rankState) tryRun(s core.Side, ti int32) {
	ss := &st.side[s]
	t := &st.prog.Side[s].Tasks[ti]
	h, av := &ss.bcast[t.Bc], st.ainv[t.Av]
	if ss.taskDone[ti] || h.Data == nil || av == nil {
		return
	}
	ss.taskDone[ti] = true
	a, b := av, h
	if s == core.Upper {
		a, b = h, av
	}
	red, pos := st.reduction(t.Red), t.Pos
	st.exec(task{kernel: kGemm, side: s, span: sideNames[s].gemm, k: int(t.K), i: int(t.I), j: int(t.J),
		a: a, b: b, out: red.localOut(pos), red: red, pos: pos})
}

// tryDiagContrib fires the diagonal contribution Û_{K,J}·A⁻¹_{J,K} of the
// owned block (J,K) at lower hat slot h (core.Program.Contribs) into the
// Diag-Reduce sum once both operands exist. On the symmetric plan Û_{K,J} is
// the rank's own L̂_{J,K} transposed and the Row-Reduce finalization of
// A⁻¹_{J,K} is the only caller. On the general plan it is the block the Û
// cross-send delivers here: two events complete the pair, both handlers call
// in and the later one fires.
func (st *rankState) tryDiagContrib(h int32) {
	c := &st.prog.Contribs[h]
	u, ta := st.side[core.Lower].hat[h], dense.DoTrans
	if !st.e.Plan.Symmetric {
		u, ta = &st.side[core.Upper].bcast[c.Bc], dense.NoTrans
	}
	av := st.ainv[c.Av]
	if u.Data == nil || av == nil {
		return
	}
	red, pos := st.reduction(c.Red), c.Pos
	st.exec(task{kernel: kGemm, ta: ta, side: core.Upper, span: "gemm", k: int(c.K), i: int(c.I), j: int(c.J),
		a: u, b: av, out: red.localOut(pos), red: red, pos: pos})
}

// reduction returns this rank's state of the reduction in slot v, giving it
// its zeroed sum on the run's first touch.
func (st *rankState) reduction(v int32) *redState {
	red := &st.red[v]
	if red.sum == nil && red.next != redDone { // Diag-Reduce has Blk = K
		rows, cols := wire[red.Op.Kind].side.Block(st.width(red.Op.Blk), st.width(red.Op.K))
		red.sum = dense.GetMatrixElem(rows, cols, st.elem)
	}
	return red
}

// maybeComplete sends a finished partial sum up the reduce tree, or — at the
// root — finalizes the block the reduction computes.
func (st *rankState) maybeComplete(red *redState) {
	if red.next != red.n() {
		return
	}
	if red.parts != nil {
		st.spare, red.parts = append(st.spare, red.parts), nil
	}
	op, k := red.Op, red.Op.K
	t0 := st.spanStart()
	m, words := red.sum, st.redWords(red)
	red.sum, red.next = nil, redDone // ownership moves on: see redState
	if red.Parent >= 0 {
		// The buffer travels up the tree; the parent recycles it.
		data := m.Data[:words]
		m.Data = nil
		dense.PutMatrix(m) // the header only
		st.r.Send(int(red.Parent), core.OpKey(op.Kind, k, op.Blk), wire[op.Kind].class, data)
		st.collSpanEnd(red.CollRole, t0)
		return
	}
	if op.Kind == core.OpDiagReduce {
		// A⁻¹_{K,K} = A_KK⁻¹ − Σ, both exactly symmetric on a symmetric plan.
		st.collSpanEnd(red.CollRole, t0)
		if st.packed(red) {
			dense.UnpackLower(m.Data[:words], m)
			dense.MirrorLower(m)
		}
		diag := dense.GetMatrixUninitElem(st.width(k), st.width(k), st.elem)
		st.exec(task{kernel: kDiagInverse, span: "diag-inverse", k: k, a: m, out: diag})
		return
	}
	// A⁻¹_{J,K} | A⁻¹_{K,J} = −Σ, released via RunResult.Release.
	m.Scale(-1)
	st.collSpanEnd(red.CollRole, t0)
	s := wire[op.Kind].side
	st.finalize(st.prog.AinvSlot[s][red.ID], m)
	if s == core.Upper {
		return
	}
	h := st.prog.Side[core.Lower].Roles[st.prog.Snode[k]].Hat + st.prog.Pos[core.Lower][red.ID] // the owned block's hat slot
	if st.e.Plan.Symmetric {
		// Mirror to the owner of (K,J), where the block's cross-send went; the
		// general plan computes the upper triangle by its own reductions.
		st.r.Send(st.prog.Side[core.Lower].Cross[h].Op.Dst, core.OpKey(core.OpSymmSend, k, op.Blk), wire[core.OpSymmSend].class, m.Data)
	}
	st.tryDiagContrib(h)
}
