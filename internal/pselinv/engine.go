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
	"pselinv/internal/simmpi"
	"pselinv/internal/trace"
)

// blockKey identifies a block (I, J) in per-rank maps.
type blockKey struct{ I, J int }

// gemmDesc is one local matrix product A⁻¹_{J,I}·L̂_{I,K} assigned to a rank.
// Pos is the task's fold position among THIS rank's contributions to its
// reduction: the rank's contributions are numbered in ascending canonical
// slot (the index of the broadcast operand's block row within the supernode
// structure C), the order every reduction folds them in.
type gemmDesc struct{ K, I, J, Pos int }

// rankProgram is the immutable per-rank role description derived centrally
// from the communication plan (so that setup cost is proportional to the
// plan size, not plan size × ranks).
type rankProgram struct {
	expect1 int // messages this rank receives in pass 1
	expect2 int // messages this rank receives in pass 2

	diagRoots []int         // supernodes whose diagonal block this rank owns (C non-empty)
	trsmByK   map[int][]int // K -> block rows I of owned L blocks to normalize
	crossSrcs []blockKey    // (I, K): owned L̂ blocks to cross-send at pass-2 start
	leafDiags []int         // supernodes with empty C whose diagonal this rank owns

	tasks   []gemmDesc
	byKI    map[blockKey][]int // (K, I) -> task indices waiting on that broadcast
	byBlock map[blockKey][]int // (J, I) -> task indices waiting on that A⁻¹ block

	// (K, J) -> local GEMM contributions to Row-Reduce. The local
	// contributions to Diag-Reduce K are the blocks of trsmByK[K].
	rowLocal map[blockKey]int

	// Asymmetric (general) path only:
	trsmUByK   map[int][]int      // K -> block cols I of owned U blocks to normalize
	crossUSrcs []blockKey         // (K, I): owned Û blocks to cross-send at pass-2 start
	tasksU     []gemmDesc         // Û_{K,I}·A⁻¹_{I,J} products owned by this rank
	byKIU      map[blockKey][]int // (K, I) -> U-task indices waiting on that row broadcast
	byBlockU   map[blockKey][]int // (I, J) -> U-task indices waiting on that A⁻¹ block
	colLocal   map[blockKey]int   // (K, J) -> local U-GEMM contributions to Col-Reduce
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
	// Trace, when non-nil, records a per-rank execution timeline of the
	// run (see internal/trace); set it before calling Run.
	Trace *trace.Recorder
	// Observer, when non-nil, is installed on each run's world and receives
	// per-message telemetry (internal/obs provides the collecting
	// implementation); set it before calling Run. Observer state is
	// per-run: use a fresh instance for every run.
	Observer simmpi.Observer
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
	p := plan.Grid.Size()
	progs := make([]*rankProgram, p)
	for r := range progs {
		progs[r] = &rankProgram{
			trsmByK:  map[int][]int{},
			byKI:     map[blockKey][]int{},
			byBlock:  map[blockKey][]int{},
			rowLocal: map[blockKey]int{},
			trsmUByK: map[int][]int{},
			byKIU:    map[blockKey][]int{},
			byBlockU: map[blockKey][]int{},
			colLocal: map[blockKey]int{},
		}
	}
	grid := plan.Owners
	for _, sp := range plan.Snodes {
		k := sp.K
		diagOwner := grid.OwnerOfBlock(k, k)
		if len(sp.C) == 0 {
			progs[diagOwner].leafDiags = append(progs[diagOwner].leafDiags, k)
			continue
		}
		progs[diagOwner].diagRoots = append(progs[diagOwner].diagRoots, k)
		// Pass 1: diagonal broadcast receives and local TRSMs.
		for _, part := range sp.DiagBcast.Tree.Participants() {
			if part != sp.DiagBcast.Tree.Root {
				progs[part].expect1++
			}
		}
		for _, i := range sp.C {
			o := grid.OwnerOfBlock(i, k)
			progs[o].trsmByK[k] = append(progs[o].trsmByK[k], i)
		}
		// Pass 2 point ops.
		for x := range sp.Cross {
			po := &sp.Cross[x]
			progs[po.Src].crossSrcs = append(progs[po.Src].crossSrcs, blockKey{po.Blk, k})
			progs[po.Dst].expect2++
		}
		for x := range sp.SymmSends {
			progs[sp.SymmSends[x].Dst].expect2++
		}
		// Broadcast trees: every non-root participant receives one message.
		for x := range sp.ColBcasts {
			tr := sp.ColBcasts[x].Tree
			for _, part := range tr.Participants() {
				if part != tr.Root {
					progs[part].expect2++
				}
			}
		}
		// Reduce trees: every node receives one message per child.
		for x := range sp.RowReduces {
			tr := sp.RowReduces[x].Tree
			for _, part := range tr.Participants() {
				progs[part].expect2 += len(tr.Children(part))
			}
		}
		tr := sp.DiagReduce.Tree
		for _, part := range tr.Participants() {
			progs[part].expect2 += len(tr.Children(part))
		}
		// GEMM tasks and local reduce contribution counts. I ascends, so the
		// running per-rank count of a reduction's tasks is each task's fold
		// position.
		for _, i := range sp.C {
			for _, j := range sp.C {
				owner := grid.OwnerOfBlock(j, i)
				pr := progs[owner]
				ti := len(pr.tasks)
				pr.tasks = append(pr.tasks, gemmDesc{K: k, I: i, J: j, Pos: pr.rowLocal[blockKey{k, j}]})
				pr.byKI[blockKey{k, i}] = append(pr.byKI[blockKey{k, i}], ti)
				pr.byBlock[blockKey{j, i}] = append(pr.byBlock[blockKey{j, i}], ti)
				pr.rowLocal[blockKey{k, j}]++
			}
		}
		if !plan.Symmetric {
			// Pass 1: row broadcast of the diagonal factor and Û TRSMs.
			for _, part := range sp.DiagBcastRow.Tree.Participants() {
				if part != sp.DiagBcastRow.Tree.Root {
					progs[part].expect1++
				}
			}
			for _, i := range sp.C {
				o := grid.OwnerOfBlock(k, i)
				progs[o].trsmUByK[k] = append(progs[o].trsmUByK[k], i)
			}
			// Pass 2: Û cross sends, row broadcasts, column reduces.
			for x := range sp.CrossU {
				po := &sp.CrossU[x]
				progs[po.Src].crossUSrcs = append(progs[po.Src].crossUSrcs, blockKey{k, po.Blk})
				progs[po.Dst].expect2++
			}
			for x := range sp.RowBcasts {
				tr := sp.RowBcasts[x].Tree
				for _, part := range tr.Participants() {
					if part != tr.Root {
						progs[part].expect2++
					}
				}
			}
			for x := range sp.ColReduces {
				tr := sp.ColReduces[x].Tree
				for _, part := range tr.Participants() {
					progs[part].expect2 += len(tr.Children(part))
				}
			}
			for _, i := range sp.C {
				for _, j := range sp.C {
					owner := grid.OwnerOfBlock(i, j)
					pr := progs[owner]
					ti := len(pr.tasksU)
					pr.tasksU = append(pr.tasksU, gemmDesc{K: k, I: i, J: j, Pos: pr.colLocal[blockKey{k, j}]})
					pr.byKIU[blockKey{k, i}] = append(pr.byKIU[blockKey{k, i}], ti)
					pr.byBlockU[blockKey{i, j}] = append(pr.byBlockU[blockKey{i, j}], ti)
					pr.colLocal[blockKey{k, j}]++
				}
			}
		}
	}
	return &Engine{Plan: plan, LU: lu, programs: progs, heights: core.SnodeHeights(plan.BP.SnParent)}
}

// Rebind returns a copy of the engine bound to a different numeric
// factorization. The plan-derived per-rank programs — the expensive part of
// NewEngine, proportional to the total task count — are shared with the
// receiver; they are immutable during runs, so rebound engines may run
// concurrently with each other and with the original. This is the warm path
// of a plan cache: same sparsity pattern, new values. Trace, Observer,
// Chaos and DAG are reset on the copy so per-run instrumentation and
// execution modes never leak between requests.
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
	Dag []DagRankStats
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
	if e.Observer != nil {
		world.SetObserver(e.Observer)
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
// adversary already installed) and gathers the result. On a timeout the
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
	gathered := blockmat.New(e.Plan.BP.Part)
	var dag []DagRankStats
	for _, st := range states {
		if st == nil { // non-local rank on a distributed transport
			continue
		}
		for key, m := range st.ainv {
			gathered.Set(key.I, key.J, m)
		}
		if st.sched != nil {
			dag = append(dag, st.sched.stats)
		}
		st.release()
	}
	return &RunResult{Ainv: gathered, World: world, Elapsed: elapsed, Dag: dag}, nil
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
	sum       *dense.Matrix
	nlocal, n int
	next      int         // first fold position not yet in sum
	parts     [][]float64 // by fold position; made on the first out-of-turn arrival
	done      bool
}

// newRedState builds a reduction's tracking state for a rank with nlocal
// own contributions and the given number of reduce-tree children.
func (st *rankState) newRedState(rows, cols, nlocal, children int) *redState {
	return &redState{sum: dense.GetMatrixElem(rows, cols, st.elem), nlocal: nlocal, n: nlocal + children}
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

// childArrived folds a child's partial sum of reduction op. Reduce payloads
// transfer buffer ownership to the receiver; fold recycles them. The sender
// must be a child of this rank in op's tree that has not delivered yet, and
// the payload one block.
func (st *rankState) childArrived(red *redState, op *core.CollOp, msg simmpi.Message) {
	pos := -1
	for x, c := range op.Tree.Children(st.r.ID) {
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
		panic(&reduceError{Kind: op.Kind, K: op.K, Blk: op.Blk, Src: msg.Src, Rank: st.r.ID, Reason: bad})
	}
	red.fold(pos, msg.Data)
}

// rankState is the mutable per-rank runtime state.
type rankState struct {
	e    *Engine
	r    *simmpi.Rank
	prog *rankProgram

	lhat     map[blockKey]*dense.Matrix // owned L̂ blocks (pass 1 output)
	diagFact map[int]*dense.Matrix      // packed diagonal factors (owned or received)
	ainv     map[blockKey]*dense.Matrix // finalized owned A⁻¹ blocks
	bcastL   map[blockKey]*dense.Matrix // (K, I) -> L̂_{I,K} received via Col-Bcast
	taskDone []bool
	rowRed   map[blockKey]*redState // (K, J)
	diagRed  map[int]*redState

	// Asymmetric path state:
	uhat      map[blockKey]*dense.Matrix // owned Û blocks, keyed (K, I)
	bcastU    map[blockKey]*dense.Matrix // (K, I) -> Û_{K,I} received via Row-Bcast
	taskUDone []bool
	colRed    map[blockKey]*redState // (K, J)
	diagTDone map[blockKey]bool      // (K, J) diagonal contributions already applied

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
		elem:      e.LU.Elem,
		lhat:      map[blockKey]*dense.Matrix{},
		diagFact:  map[int]*dense.Matrix{},
		ainv:      map[blockKey]*dense.Matrix{},
		bcastL:    map[blockKey]*dense.Matrix{},
		taskDone:  make([]bool, len(e.programs[r.ID].tasks)),
		rowRed:    map[blockKey]*redState{},
		diagRed:   map[int]*redState{},
		uhat:      map[blockKey]*dense.Matrix{},
		bcastU:    map[blockKey]*dense.Matrix{},
		taskUDone: make([]bool, len(e.programs[r.ID].tasksU)),
		colRed:    map[blockKey]*redState{},
		diagTDone: map[blockKey]bool{},
	}
	if e.DAG {
		st.sched = newDagSched(st)
	}
	return st
}

func (st *rankState) width(k int) int { return st.e.Plan.BP.Part.Width(k) }

// collSpan opens a collective-communication span for supernode k, tagged
// with this rank's role in the collective's tree, so the Chrome trace
// merges communication spans with the compute spans on one timeline. The
// span should cover only the message handling (forwarding sends, reduce
// combines), not the compute it unblocks — the GEMM/TRSM spans stand on
// their own.
func (st *rankState) collSpan(kind string, k int, tr *core.Tree) func() {
	if st.e.Trace == nil {
		return func() {}
	}
	me := st.r.ID
	role := "leaf"
	switch {
	case me == tr.Root:
		role = "root"
	case len(tr.Children(me)) > 0:
		role = "forwarder"
	}
	return st.e.Trace.SpanRole(me, kind, k, role)
}

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
// zero-copy. bcastL/bcastU/diagFact are aliases (of a peer's L̂/Û or of the
// factorization's diagonal blocks) and are deliberately not released;
// finalized A⁻¹ blocks are owned by the RunResult.
func (st *rankState) release() {
	for _, m := range st.lhat {
		dense.PutMatrix(m)
	}
	for _, m := range st.uhat {
		dense.PutMatrix(m)
	}
}

// --- Pass 1: diagonal broadcast + TRSM normalization -----------------------

func (st *rankState) runPass1() {
	for _, k := range st.prog.diagRoots {
		dk := st.e.LU.Diag[k]
		st.diagFact[k] = dk
		sp := st.e.Plan.Snodes[k]
		st.forwardDiag(sp.DiagBcast, dk)
		st.doTrsms(k)
		if !st.e.Plan.Symmetric {
			st.forwardDiag(sp.DiagBcastRow, dk)
			st.doTrsmsU(k)
		}
	}
	for got := 0; got < st.prog.expect1; got++ {
		msg, ok := st.r.Recv()
		if !ok {
			panic("pselinv: world closed during pass 1")
		}
		kind, k, _ := core.DecodeOpKey(msg.Tag)
		w := st.width(k)
		dk := matFromData(w, w, st.elem, msg.Data)
		st.diagFact[k] = dk
		sp := st.e.Plan.Snodes[k]
		switch kind {
		case core.OpDiagBcast:
			st.forwardDiag(sp.DiagBcast, dk)
			st.doTrsms(k)
		case core.OpDiagBcastRow:
			st.forwardDiag(sp.DiagBcastRow, dk)
			st.doTrsmsU(k)
		default:
			panic(fmt.Sprintf("pselinv: unexpected %v message in pass 1", kind))
		}
	}
	if st.sched != nil {
		// Join the TRSM tasks before the barrier: pass 2 sends L̂/Û
		// buffers zero-copy, so they must be final first. The TRSMs of
		// late-arriving diagonal broadcasts still overlapped the Recv
		// waits above.
		st.sched.drain()
	}
}

// forwardDiag sends the packed diagonal factor dk to this rank's children in
// the pass-1 broadcast op (down the column, or along the row on the general
// path).
func (st *rankState) forwardDiag(op *core.CollOp, dk *dense.Matrix) {
	end := st.collSpan("diag-bcast", op.K, op.Tree)
	for _, c := range op.Tree.Children(st.r.ID) {
		st.r.Send(c, op.Key(), simmpi.ClassDiagBcast, dk.Data)
	}
	end()
}

// doTrsms normalizes every owned L block in column k:
// L̂_{I,K} = L_{I,K} L_KK⁻¹ (right solve against the unit lower factor).
func (st *rankState) doTrsms(k int) {
	dk := st.diagFact[k]
	for _, i := range st.prog.trsmByK[k] {
		lb, ok := st.e.LU.LBlock(i, k)
		if !ok {
			panic(fmt.Sprintf("pselinv: plan references missing L block (%d,%d)", i, k))
		}
		if st.sched != nil {
			// The map insert happens here so pass 2 finds the block; the
			// solve fills it on a worker, joined before the barrier.
			x := dense.GetMatrixCopy(lb)
			st.lhat[blockKey{i, k}] = x
			st.sched.submit(k, "trsm", st.sched.depf("diag-bcast(%d)", k), func() {
				dense.Trsm(dense.Right, dense.Lower, dense.NoTrans, dense.Unit, dk, x)
			}, nil)
			continue
		}
		end := st.e.Trace.Span(st.r.ID, "trsm", k)
		x := dense.GetMatrixCopy(lb)
		dense.Trsm(dense.Right, dense.Lower, dense.NoTrans, dense.Unit, dk, x)
		st.lhat[blockKey{i, k}] = x
		end()
	}
}

// doTrsmsU normalizes every owned U block in row k (asymmetric path):
// Û_{K,I} = U_KK⁻¹ U_{K,I} (left solve against the upper factor).
func (st *rankState) doTrsmsU(k int) {
	dk := st.diagFact[k]
	for _, i := range st.prog.trsmUByK[k] {
		ub, ok := st.e.LU.UBlock(k, i)
		if !ok {
			panic(fmt.Sprintf("pselinv: plan references missing U block (%d,%d)", k, i))
		}
		if st.sched != nil {
			x := dense.GetMatrixCopy(ub)
			st.uhat[blockKey{k, i}] = x
			st.sched.submit(k, "trsm-u", st.sched.depf("diag-bcast-row(%d)", k), func() {
				dense.Trsm(dense.Left, dense.Upper, dense.NoTrans, dense.NonUnit, dk, x)
			}, nil)
			continue
		}
		end := st.e.Trace.Span(st.r.ID, "trsm-u", k)
		x := dense.GetMatrixCopy(ub)
		dense.Trsm(dense.Left, dense.Upper, dense.NoTrans, dense.NonUnit, dk, x)
		st.uhat[blockKey{k, i}] = x
		end()
	}
}

// --- Pass 2: asynchronous selected inversion -------------------------------

func (st *rankState) runPass2() {
	if st.sched != nil {
		st.runPass2Dag()
		return
	}
	// Initial local actions: leaf diagonals and cross-sends of ready L̂.
	for _, k := range st.prog.leafDiags {
		end := st.e.Trace.Span(st.r.ID, "diag-inverse", k)
		inv := dense.GetMatrixUninitElem(st.width(k), st.width(k), st.elem)
		st.e.LU.DiagInverseTo(k, inv)
		end()
		st.finalize(blockKey{k, k}, inv)
	}
	for _, bk := range st.prog.crossSrcs {
		i, k := bk.I, bk.J
		dst := st.e.Plan.Owners.OwnerOfBlock(k, i)
		st.r.Send(dst, core.OpKey(core.OpCrossSend, k, i), simmpi.ClassCrossSend,
			st.lhat[blockKey{i, k}].Data)
	}
	for _, bk := range st.prog.crossUSrcs {
		k, i := bk.I, bk.J
		dst := st.e.Plan.Owners.OwnerOfBlock(i, k)
		st.r.Send(dst, core.OpKey(core.OpCrossSendU, k, i), simmpi.ClassCrossSend,
			st.uhat[blockKey{k, i}].Data)
	}
	for got := 0; got < st.prog.expect2; got++ {
		msg, ok := st.r.Recv()
		if !ok {
			panic("pselinv: world closed during pass 2")
		}
		st.handle(msg)
	}
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
	me := st.r.ID
	switch kind {
	case core.OpCrossSend, core.OpColBcast:
		// L̂_{I,K} arrives — by cross-send at the owner of (K, I), the
		// broadcast root, else from the tree parent: store it and forward it
		// down processor column I.
		i := blk
		lh := matFromData(st.width(i), st.width(k), st.elem, msg.Data)
		cb := &sp.ColBcasts[cIndex(sp.C, i)]
		end := st.collSpan("col-bcast", k, cb.Tree)
		for _, c := range cb.Tree.Children(me) {
			st.r.Send(c, cb.Key(), simmpi.ClassColBcast, lh.Data)
		}
		end()
		st.bcastArrived(k, i, lh)
	case core.OpRowReduce:
		j := blk
		red := st.getRowRed(k, j)
		st.childArrived(red, &sp.RowReduces[cIndex(sp.C, j)], msg)
		st.maybeCompleteRow(k, j, red)
	case core.OpDiagReduce:
		red := st.getDiagRed(k)
		st.childArrived(red, sp.DiagReduce, msg)
		st.maybeCompleteDiag(k, red)
	case core.OpSymmSend:
		// Finalized A⁻¹_{J,K} arrives at the owner of (K, J); mirror it.
		// The payload is the sender's finalized block (not ours to recycle).
		j := blk
		low := matFromData(st.width(j), st.width(k), st.elem, msg.Data)
		up := dense.GetMatrixUninitElem(low.Cols, low.Rows, low.Elem)
		low.TransposeInto(up)
		st.finalize(blockKey{k, j}, up)
	case core.OpCrossSendU, core.OpRowBcast:
		// Û_{K,I} arrives — by cross-send at the owner of (I, K), the
		// row-broadcast root, else from the tree parent: store it and forward
		// it along processor row I. The root is also the Row-Reduce root for
		// block (I,K), so the diagonal contribution for it may now fire.
		i := blk
		uh := matFromData(st.width(k), st.width(i), st.elem, msg.Data)
		rb := &sp.RowBcasts[cIndex(sp.C, i)]
		end := st.collSpan("row-bcast", k, rb.Tree)
		for _, c := range rb.Tree.Children(me) {
			st.r.Send(c, rb.Key(), simmpi.ClassRowBcast, uh.Data)
		}
		end()
		st.bcastUArrived(k, i, uh)
		if kind == core.OpCrossSendU {
			st.tryDiagContribAsym(k, i)
		}
	case core.OpColReduce:
		j := blk
		red := st.getColRed(k, j)
		st.childArrived(red, &sp.ColReduces[cIndex(sp.C, j)], msg)
		st.maybeCompleteCol(k, j, red)
	default:
		panic(fmt.Sprintf("pselinv: unexpected %v message in pass 2", kind))
	}
}

// bcastUArrived records Û_{K,I} and fires any upper GEMM whose A⁻¹ operand
// is already final.
func (st *rankState) bcastUArrived(k, i int, uh *dense.Matrix) {
	st.bcastU[blockKey{k, i}] = uh
	for _, ti := range st.prog.byKIU[blockKey{k, i}] {
		st.tryRunU(ti)
	}
}

// tryRunU executes upper GEMM task ti (Û_{K,I}·A⁻¹_{I,J}) when both
// operands are available, accumulating into the Col-Reduce sum for (K,J).
func (st *rankState) tryRunU(ti int) {
	if st.taskUDone[ti] {
		return
	}
	t := st.prog.tasksU[ti]
	uh, ok := st.bcastU[blockKey{t.K, t.I}]
	if !ok {
		return
	}
	av, ok := st.ainv[blockKey{t.I, t.J}]
	if !ok {
		return
	}
	st.taskUDone[ti] = true
	red := st.getColRed(t.K, t.J)
	out := red.localOut(t.Pos)
	if st.sched != nil {
		st.sched.submit(t.K, "gemm-u",
			st.sched.depf("bcast-u(%d,%d) ainv(%d,%d)", t.K, t.I, t.I, t.J),
			func() {
				dense.Gemm(dense.NoTrans, dense.NoTrans, 1, uh, av, 1, out)
			}, func() {
				red.localDone(t.Pos, out)
				st.maybeCompleteCol(t.K, t.J, red)
			})
		return
	}
	end := st.e.Trace.Span(st.r.ID, "gemm-u", t.K)
	dense.Gemm(dense.NoTrans, dense.NoTrans, 1, uh, av, 1, out)
	end()
	red.localDone(t.Pos, out)
	st.maybeCompleteCol(t.K, t.J, red)
}

func (st *rankState) getColRed(k, j int) *redState {
	key := blockKey{k, j}
	if red, ok := st.colRed[key]; ok {
		return red
	}
	sp := st.e.Plan.Snodes[k]
	tr := sp.ColReduces[cIndex(sp.C, j)].Tree
	red := st.newRedState(st.width(k), st.width(j), st.prog.colLocal[key], len(tr.Children(st.r.ID)))
	st.colRed[key] = red
	return red
}

// maybeCompleteCol sends a finished upper partial sum up the reduce tree,
// or — at the root, the owner of (K,J) — finalizes A⁻¹_{K,J} = −Σ.
func (st *rankState) maybeCompleteCol(k, j int, red *redState) {
	if red.done || red.next < red.n {
		return
	}
	red.done = true
	sp := st.e.Plan.Snodes[k]
	op := &sp.ColReduces[cIndex(sp.C, j)]
	end := st.collSpan("col-reduce", k, op.Tree)
	me := st.r.ID
	if me != op.Tree.Root {
		// The buffer travels up the tree; the parent recycles it.
		st.r.Send(op.Tree.Parent(me), op.Key(), simmpi.ClassColReduce, red.sum.Data)
		red.sum = nil
		end()
		return
	}
	m := red.sum
	red.sum = nil // ownership moves to ainv (released via RunResult.Release)
	m.Scale(-1)
	end()
	st.finalize(blockKey{k, j}, m)
}

// tryDiagContribAsym fires the diagonal contribution Û_{K,J}·A⁻¹_{J,K} at
// the owner of (J,K) once both operands exist. Two asynchronous events can
// complete the pair — the Û cross-send arrival and the local Row-Reduce
// finalization — so both handlers call in here.
func (st *rankState) tryDiagContribAsym(k, j int) {
	key := blockKey{k, j}
	if st.diagTDone[key] {
		return
	}
	uh, ok := st.bcastU[key]
	if !ok {
		return
	}
	av, ok := st.ainv[blockKey{j, k}]
	if !ok {
		return
	}
	st.diagTDone[key] = true
	red := st.getDiagRed(k)
	pos := st.diagPos(k, j)
	out := red.localOut(pos)
	if st.sched != nil {
		st.sched.submit(k, "gemm",
			st.sched.depf("bcast-u(%d,%d) ainv(%d,%d)", k, j, j, k),
			func() {
				dense.Gemm(dense.NoTrans, dense.NoTrans, 1, uh, av, 1, out)
			}, func() {
				red.localDone(pos, out)
				st.maybeCompleteDiag(k, red)
			})
		return
	}
	dense.Gemm(dense.NoTrans, dense.NoTrans, 1, uh, av, 1, out)
	red.localDone(pos, out)
	st.maybeCompleteDiag(k, red)
}

// diagPos returns the fold position of this rank's Diag-Reduce
// contribution for block row j of supernode k: the rank contributes once
// per owned block (J,K), and trsmByK lists those ascending.
func (st *rankState) diagPos(k, j int) int { return cIndex(st.prog.trsmByK[k], j) }

// bcastArrived records L̂_{I,K} and fires any GEMM whose A⁻¹ operand is
// already final.
func (st *rankState) bcastArrived(k, i int, lh *dense.Matrix) {
	st.bcastL[blockKey{k, i}] = lh
	for _, ti := range st.prog.byKI[blockKey{k, i}] {
		st.tryRun(ti)
	}
}

// finalize records an owned A⁻¹ block and fires any GEMM waiting on it.
func (st *rankState) finalize(key blockKey, m *dense.Matrix) {
	if _, dup := st.ainv[key]; dup {
		panic(fmt.Sprintf("pselinv: block (%d,%d) finalized twice", key.I, key.J))
	}
	st.ainv[key] = m
	for _, ti := range st.prog.byBlock[key] {
		st.tryRun(ti)
	}
	for _, ti := range st.prog.byBlockU[key] {
		st.tryRunU(ti)
	}
}

// tryRun executes GEMM task ti when both operands are available.
func (st *rankState) tryRun(ti int) {
	if st.taskDone[ti] {
		return
	}
	t := st.prog.tasks[ti]
	lh, ok := st.bcastL[blockKey{t.K, t.I}]
	if !ok {
		return
	}
	av, ok := st.ainv[blockKey{t.J, t.I}]
	if !ok {
		return
	}
	st.taskDone[ti] = true
	red := st.getRowRed(t.K, t.J)
	out := red.localOut(t.Pos)
	if st.sched != nil {
		st.sched.submit(t.K, "gemm",
			st.sched.depf("bcast(%d,%d) ainv(%d,%d)", t.K, t.I, t.J, t.I),
			func() {
				dense.Gemm(dense.NoTrans, dense.NoTrans, 1, av, lh, 1, out)
			}, func() {
				red.localDone(t.Pos, out)
				st.maybeCompleteRow(t.K, t.J, red)
			})
		return
	}
	end := st.e.Trace.Span(st.r.ID, "gemm", t.K)
	dense.Gemm(dense.NoTrans, dense.NoTrans, 1, av, lh, 1, out)
	end()
	red.localDone(t.Pos, out)
	st.maybeCompleteRow(t.K, t.J, red)
}

func (st *rankState) getRowRed(k, j int) *redState {
	key := blockKey{k, j}
	if red, ok := st.rowRed[key]; ok {
		return red
	}
	sp := st.e.Plan.Snodes[k]
	tr := sp.RowReduces[cIndex(sp.C, j)].Tree
	red := st.newRedState(st.width(j), st.width(k), st.prog.rowLocal[key], len(tr.Children(st.r.ID)))
	st.rowRed[key] = red
	return red
}

func (st *rankState) getDiagRed(k int) *redState {
	if red, ok := st.diagRed[k]; ok {
		return red
	}
	tr := st.e.Plan.Snodes[k].DiagReduce.Tree
	red := st.newRedState(st.width(k), st.width(k), len(st.prog.trsmByK[k]), len(tr.Children(st.r.ID)))
	st.diagRed[k] = red
	return red
}

// maybeCompleteRow sends a finished partial sum up the reduce tree, or — at
// the root — finalizes A⁻¹_{J,K} and triggers the mirror send and the
// diagonal contribution.
func (st *rankState) maybeCompleteRow(k, j int, red *redState) {
	if red.done || red.next < red.n {
		return
	}
	red.done = true
	sp := st.e.Plan.Snodes[k]
	op := &sp.RowReduces[cIndex(sp.C, j)]
	end := st.collSpan("row-reduce", k, op.Tree)
	me := st.r.ID
	if me != op.Tree.Root {
		// The buffer travels up the tree; the parent recycles it.
		st.r.Send(op.Tree.Parent(me), op.Key(), simmpi.ClassRowReduce, red.sum.Data)
		red.sum = nil
		end()
		return
	}
	// Root: A⁻¹_{J,K} = −(accumulated sum).
	m := red.sum
	red.sum = nil // ownership moves to ainv (released via RunResult.Release)
	m.Scale(-1)
	end()
	st.finalize(blockKey{j, k}, m)
	if !st.e.Plan.Symmetric {
		// General path: the upper triangle is computed by its own
		// reductions; the diagonal contribution needs the broadcast Û,
		// which may not have arrived yet.
		st.tryDiagContribAsym(k, j)
		return
	}
	// Symmetric path: mirror to the upper triangle.
	dst := st.e.Plan.Owners.OwnerOfBlock(k, j)
	st.r.Send(dst, core.OpKey(core.OpSymmSend, k, j), simmpi.ClassSymmSend, m.Data)
	// Local contribution to the diagonal update:
	// L̂_{J,K}ᵀ · A⁻¹_{J,K} = Û_{K,J} · A⁻¹_{J,K}, accumulated into the
	// Diag-Reduce sum.
	lhjk, ok := st.lhat[blockKey{j, k}]
	if !ok {
		panic(fmt.Sprintf("pselinv: row-reduce root %d lacks L̂(%d,%d)", me, j, k))
	}
	dred := st.getDiagRed(k)
	pos := st.diagPos(k, j)
	out := dred.localOut(pos)
	if st.sched != nil {
		st.sched.submit(k, "gemm",
			st.sched.depf("lhat(%d,%d) rowred(%d,%d)", j, k, k, j),
			func() {
				dense.Gemm(dense.DoTrans, dense.NoTrans, 1, lhjk, m, 1, out)
			}, func() {
				dred.localDone(pos, out)
				st.maybeCompleteDiag(k, dred)
			})
		return
	}
	dense.Gemm(dense.DoTrans, dense.NoTrans, 1, lhjk, m, 1, out)
	dred.localDone(pos, out)
	st.maybeCompleteDiag(k, dred)
}

// maybeCompleteDiag sends a finished diagonal partial sum up the tree, or —
// at the root — finalizes A⁻¹_{K,K} = U_KK⁻¹L_KK⁻¹ − Σ.
func (st *rankState) maybeCompleteDiag(k int, red *redState) {
	if red.done || red.next < red.n {
		return
	}
	red.done = true
	op := st.e.Plan.Snodes[k].DiagReduce
	endColl := st.collSpan("diag-reduce", k, op.Tree)
	me := st.r.ID
	if me != op.Tree.Root {
		// The buffer travels up the tree; the parent recycles it.
		st.r.Send(op.Tree.Parent(me), op.Key(), simmpi.ClassDiagReduce, red.sum.Data)
		red.sum = nil
		endColl()
		return
	}
	endColl()
	if st.sched != nil {
		sum := red.sum
		red.sum = nil
		diag := dense.GetMatrixUninitElem(st.width(k), st.width(k), st.elem)
		st.sched.submit(k, "diag-inverse", st.sched.depf("diag-reduce(%d)", k),
			func() {
				st.e.LU.DiagInverseTo(k, diag)
				diag.AddScaled(-1, sum)
			}, func() {
				dense.PutMatrix(sum)
				st.finalize(blockKey{k, k}, diag)
			})
		return
	}
	end := st.e.Trace.Span(st.r.ID, "diag-inverse", k)
	diag := dense.GetMatrixUninitElem(st.width(k), st.width(k), st.elem)
	st.e.LU.DiagInverseTo(k, diag)
	diag.AddScaled(-1, red.sum)
	end()
	dense.PutMatrix(red.sum)
	red.sum = nil
	st.finalize(blockKey{k, k}, diag)
}
