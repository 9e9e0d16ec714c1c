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
package pselinv

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"pselinv/internal/blockmat"
	"pselinv/internal/chaos"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/factor"
	"pselinv/internal/obs"
	"pselinv/internal/simmpi"
)

// blockKey identifies a block (I, J) in per-rank maps.
type blockKey struct{ I, J int }

// gemmDesc is one local matrix product assigned to a rank: A⁻¹_{J,I}·L̂_{I,K}
// on the lower side, Û_{K,I}·A⁻¹_{I,J} on the upper. Pos is the task's fold
// position among THIS rank's contributions to its reduction: the rank's
// contributions are numbered in ascending canonical slot (the index of the
// broadcast operand's block within the supernode structure C), the order
// every reduction folds them in.
type gemmDesc struct{ K, I, J, Pos int }

// sideProgram is a rank's role on one side of the second loop (core.Side).
// Keys of the form (K, I) name the side's factor block I of supernode K:
// L_{I,K} on the lower side, U_{K,I} on the upper.
type sideProgram struct {
	trsmByK   map[int][]int   // K -> blocks I of owned factor blocks to normalize
	crossSrcs []*core.PointOp // owned normalized blocks to cross-send at pass-2 start

	tasks   []gemmDesc
	byBcast map[blockKey][]int // (K, I) -> task indices waiting on that broadcast
	byBlock map[blockKey][]int // A⁻¹ block (row, col) -> task indices waiting on it
	nlocal  map[blockKey]int   // (K, J) -> local GEMM contributions to that reduction
}

// rankProgram is the immutable per-rank role description derived centrally
// from the communication plan (so that setup cost is proportional to the
// plan size, not plan size × ranks).
type rankProgram struct {
	expect1 int // messages this rank receives in pass 1
	expect2 int // messages this rank receives in pass 2

	diagRoots []int // supernodes whose diagonal block this rank owns (C non-empty)
	leafDiags []int // supernodes with empty C whose diagonal this rank owns

	// The upper side stays empty on a symmetric plan. The local contributions
	// to Diag-Reduce K are the blocks of side[core.Lower].trsmByK[K].
	side [2]sideProgram
}

// Engine executes parallel selected inversion for one (plan, factorization)
// pair. It is safe to Run multiple times; each run gets fresh state.
type Engine struct {
	Plan     *core.Plan
	LU       *factor.LU
	programs []*rankProgram
	// heights holds each supernode's elimination-tree height, the
	// critical-path dispatch priority of DAG mode (immutable, shared by
	// Rebind like the programs).
	heights []int
	// Obs, when non-nil, observes the run: it is installed on the run's
	// world for per-message telemetry, the rank goroutines append their
	// compute and collective spans to it, and the result carries one
	// snapshot per local rank (RunResult.Snapshots). Set it before calling
	// Run; its state is per-run, so use a fresh collector for every run.
	// Nil costs the hot path one pointer check per span site.
	Obs *obs.Collector
	// Chaos, when non-nil, installs a seeded delivery adversary
	// (internal/chaos) on each run's world.
	Chaos *chaos.Config
	// DAG schedules each rank's TRSM/GEMM-sized compute as a task DAG on
	// the shared dense worker pool (see dag.go), overlapping it with the
	// tree collectives that stay on the rank goroutine. The reductions fold
	// in the same fixed order either way (see redState), so a DAG run is
	// byte-identical to a sequential run of the same plan.
	DAG bool
}

// NewEngine derives the per-rank programs from the plan.
func NewEngine(plan *core.Plan, lu *factor.LU) *Engine {
	progs := make([]*rankProgram, plan.Grid.Size())
	for r := range progs {
		progs[r] = &rankProgram{}
		for _, s := range plan.Sides() {
			progs[r].side[s] = sideProgram{trsmByK: map[int][]int{},
				byBcast: map[blockKey][]int{}, byBlock: map[blockKey][]int{}, nlocal: map[blockKey]int{}}
		}
	}
	// Every non-root participant of a broadcast receives one message; every
	// participant of a reduction one per child.
	bcastRecvs := func(op *core.CollOp, pass1 bool) {
		for _, part := range op.Tree.Participants() {
			if part == op.Tree.Root {
				continue
			}
			if pass1 {
				progs[part].expect1++
			} else {
				progs[part].expect2++
			}
		}
	}
	reduceRecvs := func(op *core.CollOp) {
		for _, part := range op.Tree.Participants() {
			progs[part].expect2 += len(op.Tree.Children(part))
		}
	}
	for _, sp := range plan.Snodes {
		k := sp.K
		diagOwner := plan.Owners.OwnerOfBlock(k, k)
		if len(sp.C) == 0 {
			progs[diagOwner].leafDiags = append(progs[diagOwner].leafDiags, k)
			continue
		}
		progs[diagOwner].diagRoots = append(progs[diagOwner].diagRoots, k)
		for _, s := range plan.Sides() {
			ops := sp.Side(s)
			owner := func(i, j int) *sideProgram {
				return &progs[plan.Owners.OwnerOfBlock(s.Block(i, j))].side[s]
			}
			// Pass 1: diagonal broadcast receives and local TRSMs.
			bcastRecvs(ops.DiagBcast, true)
			for _, i := range sp.C {
				ps := owner(i, k)
				ps.trsmByK[k] = append(ps.trsmByK[k], i)
			}
			// Pass 2: cross sends, broadcasts, reductions.
			for x := range ops.Cross {
				po := &ops.Cross[x]
				progs[po.Src].side[s].crossSrcs = append(progs[po.Src].side[s].crossSrcs, po)
				progs[po.Dst].expect2++
				bcastRecvs(&ops.Bcasts[x], false)
				reduceRecvs(&ops.Reduces[x])
			}
			// GEMM tasks and local reduce contribution counts. I ascends, so the
			// running per-rank count of a reduction's tasks is each task's fold
			// position.
			for _, i := range sp.C {
				for _, j := range sp.C {
					ps := owner(j, i)
					ti := len(ps.tasks)
					ps.tasks = append(ps.tasks, gemmDesc{K: k, I: i, J: j, Pos: ps.nlocal[blockKey{k, j}]})
					ps.byBcast[blockKey{k, i}] = append(ps.byBcast[blockKey{k, i}], ti)
					ps.byBlock[ablock(s, j, i)] = append(ps.byBlock[ablock(s, j, i)], ti)
					ps.nlocal[blockKey{k, j}]++
				}
			}
		}
		for x := range sp.SymmSends {
			progs[sp.SymmSends[x].Dst].expect2++
		}
		reduceRecvs(sp.DiagReduce)
	}
	return &Engine{Plan: plan, LU: lu, programs: progs, heights: core.SnodeHeights(plan.BP.SnParent)}
}

// ablock names the A⁻¹ block at side-relative position (i, j): (I,J) itself
// on the lower side, its mirror (J,I) on the upper (core.Side.Block).
func ablock(s core.Side, i, j int) blockKey {
	r, c := s.Block(i, j)
	return blockKey{r, c}
}

// Rebind returns a copy of the engine bound to a different numeric
// factorization. The plan-derived per-rank programs — the expensive part of
// NewEngine, proportional to the total task count — are shared with the
// receiver; they are immutable during runs, so rebound engines may run
// concurrently with each other and with the original. This is the warm path
// of a plan cache: same sparsity pattern, new values. Obs, Chaos and DAG
// are reset on the copy so per-run instrumentation and execution modes
// never leak between requests.
func (e *Engine) Rebind(lu *factor.LU) *Engine {
	return &Engine{Plan: e.Plan, LU: lu, programs: e.programs, heights: e.heights}
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
	rr.Ainv.Range(func(_ blockmat.Key, b *dense.Matrix) { dense.PutMatrix(b) })
	rr.Ainv = nil
}

// Run executes the two passes on a fresh in-process world and gathers the
// result (for any other transport, build the world with simmpi.NewWorldOn
// and use RunWorld). With Chaos set, the world gets a seeded delivery adversary. On error the
// world is closed; use RunWorld to snapshot a deadlocked world first.
func (e *Engine) Run(timeout time.Duration) (*RunResult, error) {
	world := simmpi.NewWorld(e.Plan.Grid.Size())
	if e.Chaos != nil {
		chaos.Install(*e.Chaos, world)
	}
	res, err := e.RunWorld(world, timeout)
	if err != nil {
		if _, ok := err.(*simmpi.TimeoutError); ok {
			// Snapshot before Close releases the blocked goroutines: the
			// error then names where every rank was stuck and what was in
			// flight, same as the distributed workers' timeout reports.
			err = fmt.Errorf("%w\n%s", err, chaos.Snapshot(world, e.Plan, err).String())
		}
		world.Close()
	}
	return res, err
}

// RunWorld executes the two passes on a caller-supplied world (with any
// adversary already installed; Obs is installed here) and gathers the
// result. On a timeout the
// world is NOT closed, so the caller can take a chaos.Snapshot of the stuck
// ranks and in-flight messages before closing it. A malformed reduce message
// (see reduceError) closes the world and fails the run at once.
//
// With a distributed transport underneath the world (one rank per
// process), only the world's local ranks execute and the result gathers
// only their A⁻¹ blocks; volume conservation is then a cross-process
// property the launcher checks after aggregating worker counters (see
// internal/distrun), so the local check is skipped.
//
// A symmetric plan needs symmetric values, real or complex (A − zI is
// symmetric under the plain transpose): on asymmetric ones the run fails
// with a symmetryError before a message is sent. The general plan is
// correct for either, at ×1.7 the bytes.
func (e *Engine) RunWorld(world *simmpi.World, timeout time.Duration) (*RunResult, error) {
	if e.Plan.Symmetric && !e.LU.Symmetric {
		return nil, symmetryError{fmt.Errorf("pselinv: symmetric plan bound to a %s factorization of asymmetric values (plan with Symmetric = LU.Symmetric)", e.LU.Elem)}
	}
	if e.Obs != nil {
		world.SetObserver(e.Obs)
	}
	states := make([]*rankState, world.P)
	scheme := e.Plan.Scheme.String()
	// A malformed reduce message fails the run with the detecting rank's
	// reduceError: that rank closes the world, which unblocks its peers,
	// whose own unwinding is then not a second failure.
	var bad atomic.Pointer[reduceError]
	start := time.Now()
	err := world.Run(timeout, func(r *simmpi.Rank) {
		defer func() {
			p := recover()
			if re, ok := p.(*reduceError); ok && bad.CompareAndSwap(nil, re) {
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
			st := newRankState(e, r)
			states[r.ID] = st
			st.runPass1()
			r.Barrier()
			st.runPass2()
		})
	})
	elapsed := time.Since(start)
	if re := bad.Load(); re != nil {
		return nil, re
	}
	if err != nil {
		return nil, err
	}
	if world.AllLocal() {
		if cerr := world.CheckConservation(); cerr != nil {
			return nil, cerr
		}
	}
	res := &RunResult{Ainv: blockmat.New(e.Plan.BP.Part), World: world, Elapsed: elapsed}
	var loads []core.RankLoad
	if e.Obs != nil {
		loads = e.Plan.RankLoads()
	}
	for r, st := range states {
		if st == nil { // non-local rank on a distributed transport
			continue
		}
		for key, m := range st.ainv {
			res.Ainv.Set(key.I, key.J, m)
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
		st.release()
	}
	return res, nil
}

// redState tracks one in-flight reduction at one rank. Every participant
// folds the same way: its own contributions in ascending canonical slot
// (fold positions [0, nlocal)), then its children's partial sums in
// Tree.Children order (positions [nlocal, n)), and sends the one resulting
// block to its parent. The bracketing is a property of the plan alone, so
// the result is bit-identical under any delivery order, chaos seed, DAG pool
// schedule and transport.
//
// A contribution that finishes ahead of its turn waits in parts — a local
// one in the private scratch matrix its GEMM wrote (the race-freedom
// concurrent DAG tasks need), a child's payload by reference — and the
// in-order prefix is folded eagerly. The lowest local slot computes straight
// into sum, so a rank with a single contribution holds no scratch at all.
//
// sum is arena-backed and becomes nil at completion: ownership moves to the
// parent's mailbox (non-root), to the finalized ainv block (row/col root),
// or back to the arena (diag root).
type redState struct {
	op        *core.CollOp // the plan's reduction this state belongs to
	sum       *dense.Matrix
	nlocal, n int
	next      int         // first fold position not yet in sum
	parts     [][]float64 // by fold position; made on the first out-of-turn arrival
	done      bool
}

// fold takes the finished contribution at fold position pos — nil for the
// lowest local slot, which is sum itself — and adds it, with any successors
// already waiting, to sum when its turn has come. It owns data from here on.
func (red *redState) fold(pos int, data []float64) {
	if pos != red.next {
		if red.parts == nil {
			red.parts = make([][]float64, red.n)
		}
		red.parts[pos] = data
		return
	}
	for {
		if data != nil {
			addPayload(red.sum, data)
			dense.PutBuf(data)
		}
		red.next++
		if red.parts == nil || red.next == red.n || red.parts[red.next] == nil {
			return
		}
		data, red.parts[red.next] = red.parts[red.next], nil
	}
}

// localOut returns the matrix the local contribution at fold position pos
// accumulates into: sum for the lowest slot, a zeroed scratch otherwise.
func (red *redState) localOut(pos int) *dense.Matrix {
	if pos == 0 {
		return red.sum
	}
	return dense.GetMatrixElem(red.sum.Rows, red.sum.Cols, red.sum.Elem)
}

// localDone folds a finished local contribution written into out (obtained
// from localOut for the same pos).
func (red *redState) localDone(pos int, out *dense.Matrix) {
	if pos == 0 {
		red.fold(0, nil)
		return
	}
	data := out.Data
	out.Data = nil
	dense.PutMatrix(out) // the header only; fold recycles the buffer
	red.fold(pos, data)
}

// symmetryError reports a symmetric plan bound to a factorization of
// asymmetric values: the symmetric program mirrors A⁻¹_{J,K} into (K,J) and
// uses L̂ᵀ for Û, so it would return a wrong inverse with no other symptom.
type symmetryError struct{ error }

// reduceError reports a reduce message that cannot belong to the collective
// its tag names. It fails the run instead of corrupting the fold.
type reduceError struct {
	Kind      core.OpKind
	K, Blk    int
	Src, Rank int
	Reason    string
}

func (e *reduceError) Error() string {
	return fmt.Sprintf("pselinv: %v K=%d blk=%d: bad payload from rank %d at rank %d: %s",
		e.Kind, e.K, e.Blk, e.Src, e.Rank, e.Reason)
}

// childArrived folds a child's partial sum into red. Reduce payloads
// transfer buffer ownership to the receiver; fold recycles them. The sender
// must be a child of this rank in the reduction's tree that has not
// delivered yet, and the payload one block.
func (st *rankState) childArrived(red *redState, msg simmpi.Message) {
	pos := -1
	for x, c := range red.op.Tree.Children(st.r.ID) {
		if c == msg.Src {
			pos = red.nlocal + x
			break
		}
	}
	var bad string
	switch {
	case pos < 0:
		bad = "sender is not a child of the receiver in the collective's tree"
	case pos < red.next || red.parts != nil && red.parts[pos] != nil:
		bad = "second payload from this child"
	case len(msg.Data) != len(red.sum.Data):
		bad = fmt.Sprintf("%d words, want a %dx%d %s block", len(msg.Data), red.sum.Rows, red.sum.Cols, st.elem)
	}
	if bad != "" {
		panic(&reduceError{Kind: red.op.Kind, K: red.op.K, Blk: red.op.Blk, Src: msg.Src, Rank: st.r.ID, Reason: bad})
	}
	red.fold(pos, msg.Data)
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

// sideNames holds what the two sides call the same thing: the reduction kind,
// the compute span kinds and the dependency annotations of DAG task spans.
var sideNames = [2]struct {
	reduce                     core.OpKind
	trsm, gemm, diagDep, bcDep string
}{
	core.Lower: {core.OpRowReduce, "trsm", "gemm", "diag-bcast", "bcast"},
	core.Upper: {core.OpColReduce, "trsm-u", "gemm-u", "diag-bcast-row", "bcast-u"},
}

// sideState is a rank's mutable state on one side. Keys are (K, I) as in
// sideProgram.
type sideState struct {
	hat      map[blockKey]*dense.Matrix // owned normalized blocks L̂_{I,K} | Û_{K,I} (pass 1 output)
	bcast    map[blockKey]*dense.Matrix // the same blocks as received by cross-send or broadcast
	taskDone []bool
}

// rankState is the mutable per-rank runtime state.
type rankState struct {
	e    *Engine
	r    *simmpi.Rank
	prog *rankProgram

	side [2]sideState
	ainv map[blockKey]*dense.Matrix // finalized owned A⁻¹ blocks
	red  map[uint64]*redState       // in-flight reductions by op key

	// sched, non-nil iff Engine.DAG, detours TRSM/GEMM-sized compute
	// through the worker-pool task scheduler (see dag.go).
	sched *dagSched

	// elem caches the factorization's element type: every payload and
	// arena request below is a rows×cols block of it.
	elem dense.Elem
}

func newRankState(e *Engine, r *simmpi.Rank) *rankState {
	st := &rankState{
		e: e, r: r, prog: e.programs[r.ID],
		elem: e.LU.Elem,
		ainv: map[blockKey]*dense.Matrix{},
		red:  map[uint64]*redState{},
	}
	for _, s := range e.Plan.Sides() {
		st.side[s] = sideState{
			hat:      map[blockKey]*dense.Matrix{},
			bcast:    map[blockKey]*dense.Matrix{},
			taskDone: make([]bool, len(st.prog.side[s].tasks)),
		}
	}
	if e.DAG {
		st.sched = newDagSched(st)
	}
	return st
}

func (st *rankState) width(k int) int { return st.e.Plan.BP.Part.Width(k) }

func matFromData(rows, cols int, elem dense.Elem, data []float64) *dense.Matrix {
	if len(data) != rows*cols*elem.Width() {
		panic(fmt.Sprintf("pselinv: %s payload %d does not match %dx%d block",
			elem, len(data), rows, cols))
	}
	return &dense.Matrix{Rows: rows, Cols: cols, Elem: elem, Data: data}
}

// addPayload accumulates a raw reduce payload into sum without wrapping it
// in a matrix header.
func addPayload(sum *dense.Matrix, data []float64) {
	if len(data) != len(sum.Data) {
		panic(fmt.Sprintf("pselinv: reduce payload %d does not match %dx%d sum",
			len(data), sum.Rows, sum.Cols))
	}
	for i, v := range data {
		sum.Data[i] += v
	}
}

// release returns this rank's engine-owned scratch — the normalized L̂/Û
// copies made in pass 1 — to the kernel arena. It must run only after every
// rank has finished: broadcast maps on other ranks alias these buffers
// zero-copy. The bcast maps are aliases of a peer's L̂/Û and are deliberately
// not released; finalized A⁻¹ blocks are owned by the RunResult.
func (st *rankState) release() {
	for _, ss := range st.side {
		for _, m := range ss.hat {
			dense.PutMatrix(m)
		}
	}
}

// --- Compute: value tasks, one site per kernel -----------------------------

type kernel uint8

const (
	kTrsm        kernel = iota // out = the side's normalization of out against a
	kGemm                      // out += op(a)·b, a contribution to reduction red
	kDiagInverse               // out = U_KK⁻¹L_KK⁻¹ − a (a may be nil)
)

// task describes one unit of TRSM/GEMM-sized compute by value: the kernel,
// its operands and output, and what completes when it has run. exec either
// runs it on the spot or hands it to the DAG scheduler, so every kernel call
// is written once (compute) and its bookkeeping once (finish). A value, not
// closures: a sequential run executes tens of thousands of these per
// inversion without allocating for any of them.
type task struct {
	kernel kernel
	ta     dense.Trans // kGemm: transpose a
	side   core.Side   // kTrsm: the variant; kGemm: orients the annotation
	span   string      // span kind
	k      int         // supernode: span label and DAG priority
	i, j   int         // kGemm: broadcast block and A⁻¹ position, for the annotation

	a, b, out *dense.Matrix
	red       *redState // kGemm: the reduction out contributes to, at fold position pos
	pos       int
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
		t.red.localDone(t.pos, t.out)
		st.maybeComplete(t.red)
	case kDiagInverse:
		if t.a != nil {
			dense.PutMatrix(t.a)
		}
		st.finalize(blockKey{t.k, t.k}, t.out)
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
		av := ablock(t.side, t.j, t.i)
		return fmt.Sprintf("%s(%d,%d) ainv(%d,%d)", sideNames[t.side].bcDep, t.k, t.i, av.I, av.J)
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

// runPass1 broadcasts each diagonal factor and normalizes the factor blocks
// against it. Every TRSM has completed when it returns — in DAG mode too,
// where the solves of late-arriving broadcasts overlapped the receive waits:
// pass 2 sends L̂/Û buffers zero-copy, so they must be final first.
func (st *rankState) runPass1() {
	for _, k := range st.prog.diagRoots {
		for _, s := range st.e.Plan.Sides() {
			st.diagArrived(s, k, st.e.LU.Diag(k))
		}
	}
	st.recvAll(st.prog.expect1)
}

// diagArrived forwards the packed diagonal factor dk of supernode k down side
// s's pass-1 broadcast (the column on the lower side, the row on the upper)
// and normalizes every factor block this rank owns there.
func (st *rankState) diagArrived(s core.Side, k int, dk *dense.Matrix) {
	st.forward(st.e.Plan.Snodes[k].Side(s).DiagBcast, dk)
	for _, i := range st.prog.side[s].trsmByK[k] {
		var x *dense.Matrix
		if s == core.Upper {
			x = st.e.LU.UCopy(k, i) // formed from L_{I,K} when the values are symmetric
		} else if fb, ok := st.e.LU.LBlock(i, k); ok {
			x = dense.GetMatrixCopy(fb)
		}
		if x == nil {
			panic(fmt.Sprintf("pselinv: plan references missing factor block %v", ablock(s, i, k)))
		}
		// The map insert happens here so pass 2 finds the block even when the
		// solve fills it on a worker.
		st.side[s].hat[blockKey{k, i}] = x
		st.exec(task{kernel: kTrsm, side: s, span: sideNames[s].trsm, k: k, a: dk, out: x})
	}
}

// forward sends payload m to this rank's children in broadcast op, under a
// collective-communication span tagged with the rank's role in the tree, so
// the Chrome trace merges communication spans with the compute spans on one
// timeline. The span covers only the message handling, not the compute it
// unblocks — the GEMM/TRSM spans stand on their own.
func (st *rankState) forward(op *core.CollOp, m *dense.Matrix) {
	t0 := st.spanStart()
	for _, c := range op.Tree.Children(st.r.ID) {
		st.r.Send(c, op.Key(), wire[op.Kind].class, m.Data)
	}
	st.collSpanEnd(op, t0)
}

// collSpanEnd closes the span of this rank's part in collective op.
func (st *rankState) collSpanEnd(op *core.CollOp, t0 time.Time) {
	if st.e.Obs == nil {
		return
	}
	me := st.r.ID
	role := "leaf"
	switch {
	case me == op.Tree.Root:
		role = "root"
	case len(op.Tree.Children(me)) > 0:
		role = "forwarder"
	}
	st.spanEnd(wire[op.Kind].span, op.K, role, t0)
}

// runPass2 is the asynchronous selected inversion proper. Its initial local
// actions are the leaf diagonals and the cross-sends of the ready L̂/Û.
func (st *rankState) runPass2() {
	for _, k := range st.prog.leafDiags {
		inv := dense.GetMatrixUninitElem(st.width(k), st.width(k), st.elem)
		st.exec(task{kernel: kDiagInverse, span: "diag-inverse", k: k, out: inv})
	}
	for _, s := range st.e.Plan.Sides() {
		for _, po := range st.prog.side[s].crossSrcs {
			st.r.Send(po.Dst, po.Key(), wire[po.Kind].class, st.side[s].hat[blockKey{po.K, po.Blk}].Data)
		}
	}
	st.recvAll(st.prog.expect2)
}

// cIndex locates blk within the sorted C of a supernode plan.
func cIndex(c []int, blk int) int {
	x := sort.SearchInts(c, blk)
	if x == len(c) || c[x] != blk {
		panic(fmt.Sprintf("pselinv: block %d not in structure %v", blk, c))
	}
	return x
}

func (st *rankState) handle(msg simmpi.Message) {
	kind, k, blk := core.DecodeOpKey(msg.Tag)
	sp := st.e.Plan.Snodes[k]
	switch kind {
	case core.OpDiagBcast, core.OpDiagBcastRow:
		st.diagArrived(wire[kind].side, k, matFromData(st.width(k), st.width(k), st.elem, msg.Data))
	case core.OpCrossSend, core.OpColBcast, core.OpCrossSendU, core.OpRowBcast:
		// The normalized block L̂_{I,K} | Û_{K,I} arrives — by cross-send at
		// its broadcast root, else from the tree parent: forward it down the
		// tree (processor column I | row I), store it and fire the products
		// whose A⁻¹ operand is already final.
		s := wire[kind].side
		rows, cols := s.Block(st.width(blk), st.width(k))
		h := matFromData(rows, cols, st.elem, msg.Data)
		st.forward(&sp.Side(s).Bcasts[cIndex(sp.C, blk)], h)
		st.side[s].bcast[blockKey{k, blk}] = h
		for _, ti := range st.prog.side[s].byBcast[blockKey{k, blk}] {
			st.tryRun(s, ti)
		}
		if kind == core.OpCrossSendU {
			// The row-broadcast root is also the Row-Reduce root for block
			// (I,K), so the diagonal contribution for it may now fire.
			st.tryDiagContrib(k, blk)
		}
	case core.OpRowReduce, core.OpColReduce, core.OpDiagReduce:
		red := st.reduction(kind, k, blk)
		st.childArrived(red, msg)
		st.maybeComplete(red)
	case core.OpSymmSend:
		// Finalized A⁻¹_{J,K} arrives at the owner of (K, J); mirror it.
		// The payload is the sender's finalized block (not ours to recycle).
		low := matFromData(st.width(blk), st.width(k), st.elem, msg.Data)
		up := dense.GetMatrixUninitElem(low.Cols, low.Rows, low.Elem)
		low.TransposeInto(up)
		st.finalize(blockKey{k, blk}, up)
	default:
		panic(fmt.Sprintf("pselinv: unexpected %v message", kind))
	}
}

// finalize records an owned A⁻¹ block and fires any GEMM waiting on it.
func (st *rankState) finalize(key blockKey, m *dense.Matrix) {
	if _, dup := st.ainv[key]; dup {
		panic(fmt.Sprintf("pselinv: block (%d,%d) finalized twice", key.I, key.J))
	}
	st.ainv[key] = m
	for _, s := range st.e.Plan.Sides() {
		for _, ti := range st.prog.side[s].byBlock[key] {
			st.tryRun(s, ti)
		}
	}
}

// tryRun executes side s's GEMM task ti when both operands are available,
// accumulating into the reduction for (K,J): A⁻¹_{J,I}·L̂_{I,K} into
// Row-Reduce on the lower side, Û_{K,I}·A⁻¹_{I,J} into Col-Reduce on the
// upper.
func (st *rankState) tryRun(s core.Side, ti int) {
	ss := &st.side[s]
	if ss.taskDone[ti] {
		return
	}
	t := st.prog.side[s].tasks[ti]
	h, ok := ss.bcast[blockKey{t.K, t.I}]
	if !ok {
		return
	}
	av, ok := st.ainv[ablock(s, t.J, t.I)]
	if !ok {
		return
	}
	ss.taskDone[ti] = true
	a, b := av, h
	if s == core.Upper {
		a, b = h, av
	}
	red := st.reduction(sideNames[s].reduce, t.K, t.J)
	st.exec(task{kernel: kGemm, side: s, span: sideNames[s].gemm, k: t.K, i: t.I, j: t.J,
		a: a, b: b, out: red.localOut(t.Pos), red: red, pos: t.Pos})
}

// tryDiagContrib fires the diagonal contribution Û_{K,J}·A⁻¹_{J,K} at the
// owner of (J,K) into the Diag-Reduce sum, once both operands exist. On the
// symmetric plan Û_{K,J} is the rank's own L̂_{J,K} transposed and the
// Row-Reduce finalization of A⁻¹_{J,K} is the only caller. On the general
// plan it is the block the Û cross-send delivers here, so two asynchronous
// events complete the pair and both handlers call in; the later one fires.
func (st *rankState) tryDiagContrib(k, j int) {
	u, ta := st.side[core.Lower].hat[blockKey{k, j}], dense.DoTrans
	if !st.e.Plan.Symmetric {
		u, ta = st.side[core.Upper].bcast[blockKey{k, j}], dense.NoTrans
	}
	av := st.ainv[blockKey{j, k}]
	if u == nil || av == nil {
		return
	}
	red := st.reduction(core.OpDiagReduce, k, k)
	// The rank contributes once per owned block (J,K); trsmByK lists those
	// ascending, which makes the index the fold position.
	pos := cIndex(st.prog.side[core.Lower].trsmByK[k], j)
	st.exec(task{kernel: kGemm, ta: ta, side: core.Upper, span: "gemm", k: k, i: j, j: k,
		a: u, b: av, out: red.localOut(pos), red: red, pos: pos})
}

// reduction returns this rank's state of the reduction (kind, k, blk),
// created by whichever comes first, a local contribution or a child's
// partial sum.
func (st *rankState) reduction(kind core.OpKind, k, blk int) *redState {
	key := core.OpKey(kind, k, blk)
	if red, ok := st.red[key]; ok {
		return red
	}
	sp := st.e.Plan.Snodes[k]
	w := st.width(k)
	op, rows, cols, nlocal := sp.DiagReduce, w, w, len(st.prog.side[core.Lower].trsmByK[k])
	if kind != core.OpDiagReduce {
		s := wire[kind].side
		op = &sp.Side(s).Reduces[cIndex(sp.C, blk)]
		rows, cols = s.Block(st.width(blk), w)
		nlocal = st.prog.side[s].nlocal[blockKey{k, blk}]
	}
	red := &redState{op: op, sum: dense.GetMatrixElem(rows, cols, st.elem),
		nlocal: nlocal, n: nlocal + len(op.Tree.Children(st.r.ID))}
	st.red[key] = red
	return red
}

// maybeComplete sends a finished partial sum up the reduce tree, or — at the
// root — finalizes the block the reduction computes.
func (st *rankState) maybeComplete(red *redState) {
	if red.done || red.next < red.n {
		return
	}
	red.done = true
	op, me := red.op, st.r.ID
	k, j := op.K, op.Blk
	t0 := st.spanStart()
	m := red.sum
	red.sum = nil // ownership moves on: see redState
	if me != op.Tree.Root {
		// The buffer travels up the tree; the parent recycles it.
		st.r.Send(op.Tree.Parent(me), op.Key(), wire[op.Kind].class, m.Data)
		st.collSpanEnd(op, t0)
		return
	}
	if op.Kind == core.OpDiagReduce {
		// A⁻¹_{K,K} = U_KK⁻¹L_KK⁻¹ − Σ.
		st.collSpanEnd(op, t0)
		diag := dense.GetMatrixUninitElem(st.width(k), st.width(k), st.elem)
		st.exec(task{kernel: kDiagInverse, span: "diag-inverse", k: k, a: m, out: diag})
		return
	}
	// A⁻¹_{J,K} | A⁻¹_{K,J} = −Σ, released via RunResult.Release.
	m.Scale(-1)
	st.collSpanEnd(op, t0)
	s := wire[op.Kind].side
	st.finalize(ablock(s, j, k), m)
	if s == core.Upper {
		return
	}
	if st.e.Plan.Symmetric {
		// Mirror to the upper triangle, which the general plan computes by
		// its own reductions instead.
		sp := st.e.Plan.Snodes[k]
		so := &sp.SymmSends[cIndex(sp.C, j)]
		st.r.Send(so.Dst, so.Key(), wire[so.Kind].class, m.Data)
	}
	st.tryDiagContrib(k, j)
}
