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
// Nothing is looked up by name during a run: NewEngine numbers what a rank
// touches into dense per-rank slots, and the run state is flat arrays over
// them, kept on the template and recycled across runs (DESIGN.md §5p).
package pselinv

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
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

// gemmDesc is one local matrix product assigned to a rank: A⁻¹_{J,I}·L̂_{I,K}
// on the lower side, Û_{K,I}·A⁻¹_{I,J} on the upper, with this rank's slots of
// the broadcast operand (bc), the A⁻¹ operand (av) and the reduction it
// contributes to (red). pos is its fold position among THIS rank's
// contributions to that reduction: ascending index of the broadcast block
// within the supernode structure C. next chains the tasks waiting on one A⁻¹
// slot (rankProgram.waiters).
type gemmDesc struct{ k, i, j, bc, av, red, pos, next int32 }

// collRole is a rank's part in one collective of the plan, resolved once so
// that no message handler asks the tree: its neighbours, the block and, for a
// reduction, how many local products it folds ahead of its children's sums.
type collRole struct {
	op     *core.CollOp
	kids   []int // op.Tree.Children(rank), the tree's own storage
	parent int32 // op.Tree.Parent(rank): -1 at the root
	nlocal int32
	id     int32 // block id (template.first) of (op.Blk, op.K)
}

func newCollRole(op *core.CollOp, rank int, id, nlocal int32) collRole {
	return collRole{op: op, kids: op.Tree.Children(rank), parent: int32(op.Tree.Parent(rank)), nlocal: nlocal, id: id}
}

// sideRole is a rank's share of one supernode K on one side (core.Side). The
// owner map is factored (procgrid.Map), so it is a product: own blocks of C
// lie on the rank's grid line along the side's own axis (its grid row on the
// lower side, column on the upper), bc blocks on its line along the other,
// the broadcast axis. It takes part in own reductions, bc broadcasts and
// bc×own products, and owns the own factor blocks when it sits on K's line
// (diag ≥ 0) — each numbered from a first slot by the block's position among
// the blocks of C on the same line (template.pos). The product of broadcast
// block b and reduction o is task + b·own + o, at fold position b.
type sideRole struct {
	own, bc               int32
	hat, bcast, red, task int32
	diag                  int32 // broadcast slot of K's pass-1 diagonal broadcast, -1 when not in it
}

// sideProgram is a rank's role on one side of the second loop, by slot.
type sideProgram struct {
	roles  []sideRole      // by rankProgram.snode
	cross  []*core.PointOp // by hat slot: the pass-2 cross-send of owned block L_{I,K} | U_{K,I}
	bcasts []collRole      // by broadcast slot
	tasks  []gemmDesc
}

// rankProgram is the immutable per-rank role description derived centrally
// from the plan (setup cost proportional to the plan, not plan × ranks).
type rankProgram struct {
	expect1 int // messages this rank receives in pass 1
	expect2 int // messages this rank receives in pass 2

	diagRoots []int // supernodes whose diagonal block this rank owns (C non-empty)
	leafDiags []int // supernodes with empty C whose diagonal this rank owns

	// snode maps a supernode to the index of this rank's role in it, -1 for
	// none: the one table sized by the pattern, not by what the rank touches.
	snode   []int32
	diagRed []int32        // by role index: the Diag-Reduce slot in reds, -1 when not in it
	side    [2]sideProgram // the upper side stays empty on a symmetric plan
	reds    []collRole     // by reduction slot
	ainvKey []blockmat.Key // by A⁻¹ slot: the owned block
	// waiters heads, by A⁻¹ slot, the chain of tasks waiting on the block:
	// 1 + (task index<<1 | side), ascending, the lower side's first; 0 ends it.
	waiters []int32
}

// template is what NewEngine derives from the plan and Rebind shares: the
// programs, the block-indexed tables through which a message tag (kind, K,
// blk) reaches its receiver's slot, and the run states of finished runs.
type template struct {
	programs []*rankProgram
	heights  []int   // elimination-tree height per supernode: the DAG dispatch priority
	first    []int32 // BlockID(K, K): block (C[x], K) and its mirror have id first[K]+1+x
	// pos[0|1][id] counts the earlier blocks of C on the block's grid row |
	// column; ainv[side][id] is the owner's A⁻¹ slot of the lower block | its mirror.
	pos, ainv [2][]int32

	mu   sync.Mutex
	idle [][]*rankState // cleared state sets of successful runs, at most maxIdleStates
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
	// Chaos, when non-nil, installs a seeded delivery adversary
	// (internal/chaos) on each run's world.
	Chaos *chaos.Config
	// DAG schedules each rank's TRSM/GEMM-sized compute as a task DAG on
	// the shared dense worker pool (see dag.go), overlapping it with the
	// collectives, which stay on the rank goroutine. Reductions fold in the
	// same fixed order either way (see redState): byte-identical results.
	DAG bool
}

// NewEngine derives the per-rank programs and the slot tables from the plan.
func NewEngine(plan *core.Plan, lu *factor.LU) *Engine {
	bp, own, grid := plan.BP, plan.Owners, plan.Grid
	ns, nb := bp.NumSnodes(), bp.NNZBlocks()
	tm := &template{programs: make([]*rankProgram, grid.Size()), first: make([]int32, ns),
		heights: core.SnodeHeights(bp.SnParent)}
	progs := tm.programs
	for r := range progs {
		progs[r] = &rankProgram{snode: make([]int32, ns)}
		for k := range progs[r].snode {
			progs[r].snode[k] = -1
		}
	}
	for x := range tm.pos {
		tm.pos[x], tm.ainv[x] = make([]int32, nb), make([]int32, nb)
	}
	slot := func(i, j int) int32 {
		p := progs[own.OwnerOfBlock(i, j)]
		p.ainvKey = append(p.ainvKey, blockmat.Key{I: i, J: j})
		return int32(len(p.ainvKey) - 1)
	}
	// First the slots a rank's state is laid out by, so that every slot array
	// is allocated once, at its final size: each A⁻¹ block's at its owner, each
	// block's position along both grid axes and, for every rank on a grid row
	// and a grid column that C ∪ {K} reaches — exactly the participants — its
	// role: counts and first slots.
	type counts struct {
		red  int32
		side [2]struct{ hat, bcast, task int32 }
	}
	n := make([]counts, len(progs))
	lineCnt := [2][]int32{make([]int32, grid.Pr), make([]int32, grid.Pc)}
	for k := 0; k < ns; k++ {
		id, _ := bp.BlockID(k, k)
		tm.first[k] = int32(id)
		clear(lineCnt[0])
		clear(lineCnt[1])
		for x, i := range bp.RowsOf[k] {
			tm.ainv[core.Lower][id+x] = slot(i, k)
			if x == 0 {
				continue
			}
			tm.ainv[core.Upper][id+x] = slot(k, i)
			for ax, line := range [2]int{own.RowOf[i], own.ColOf[i]} {
				tm.pos[ax][id+x] = lineCnt[ax][line]
				lineCnt[ax][line]++
			}
		}
		if len(bp.RowsOf[k]) == 1 {
			continue
		}
		for pr, nr := range lineCnt[0] {
			for pc, nc := range lineCnt[1] {
				onK := [2]bool{pc == own.ColOf[k], pr == own.RowOf[k]} // on K's line along the side's own axis
				if nr == 0 && !onK[1] || nc == 0 && !onK[0] {
					continue
				}
				r, cnt := grid.RankOf(pr, pc), [2]int32{nr, nc}
				p, c := progs[r], &n[r]
				p.snode[k] = int32(len(p.diagRed))
				for _, s := range plan.Sides() {
					cs := &c.side[s]
					ro := sideRole{own: cnt[s], bc: cnt[1-s], hat: cs.hat, bcast: cs.bcast, red: c.red, task: cs.task, diag: -1}
					cs.bcast, c.red, cs.task = cs.bcast+ro.bc, c.red+ro.own, cs.task+ro.bc*ro.own
					if onK[s] { // in the pass-1 diagonal broadcast: owns the side's own factor blocks
						ro.diag, cs.bcast, cs.hat = cs.bcast, cs.bcast+1, cs.hat+ro.own
					}
					p.side[s].roles = append(p.side[s].roles, ro)
				}
				if p.diagRed = append(p.diagRed, -1); onK[core.Lower] { // in Diag-Reduce K
					p.diagRed[p.snode[k]], c.red = c.red, c.red+1
				}
			}
		}
	}
	for r, p := range progs {
		p.reds = make([]collRole, n[r].red)
		for s, c := range n[r].side {
			ps := &p.side[s]
			ps.cross, ps.bcasts, ps.tasks = make([]*core.PointOp, c.hat), make([]collRole, c.bcast), make([]gemmDesc, c.task)
		}
	}
	// Last the plan's operations into their slots. Every non-root participant
	// of a broadcast receives one message; every participant of a reduction one
	// per child.
	for _, sp := range plan.Snodes {
		k := sp.K
		diagOwner := own.OwnerOfBlock(k, k)
		if len(sp.C) == 0 {
			progs[diagOwner].leafDiags = append(progs[diagOwner].leafDiags, k)
			continue
		}
		progs[diagOwner].diagRoots = append(progs[diagOwner].diagRoots, k)
		c0 := tm.first[k] + 1 // id of block C[0]
		for _, s := range plan.Sides() {
			ops, along, across := sp.Side(s), tm.pos[s], tm.pos[1-s]
			role := func(rank int) (*rankProgram, *sideProgram, *sideRole) {
				p := progs[rank]
				return p, &p.side[s], &p.side[s].roles[p.snode[k]]
			}
			// Pass 1: diagonal broadcast receives.
			for _, r := range ops.DiagBcast.Tree.Participants() {
				p, ps, ro := role(r)
				if ps.bcasts[ro.diag] = newCollRole(ops.DiagBcast, r, c0-1, 0); r != ops.DiagBcast.Tree.Root {
					p.expect1++
				}
			}
			// Pass 2: cross sends, broadcasts, reductions.
			for x := range ops.Cross {
				id, po, bc, rd := c0+int32(x), &ops.Cross[x], &ops.Bcasts[x], &ops.Reduces[x]
				_, ps, ro := role(po.Src)
				ps.cross[ro.hat+along[id]] = po
				progs[po.Dst].expect2++
				for _, r := range bc.Tree.Participants() {
					p, ps, ro := role(r)
					if ps.bcasts[ro.bcast+across[id]] = newCollRole(bc, r, id, 0); r != bc.Tree.Root {
						p.expect2++
					}
				}
				for _, r := range rd.Tree.Participants() {
					p, _, ro := role(r)
					p.reds[ro.red+along[id]] = newCollRole(rd, r, id, ro.bc)
					p.expect2 += len(rd.Tree.Children(r))
				}
			}
			// The products, at the owner of their A⁻¹ operand.
			for x, i := range sp.C {
				for y, j := range sp.C {
					b, o := across[int(c0)+x], along[int(c0)+y]
					row, col := s.Block(j, i)
					_, ps, ro := role(own.OwnerOfBlock(row, col))
					half := core.Lower
					if row < col {
						half = core.Upper
					}
					ps.tasks[ro.task+b*ro.own+o] = gemmDesc{k: int32(k), i: int32(i), j: int32(j), bc: ro.bcast + b,
						av: tm.ainv[half][blockID(plan, min(row, col), max(row, col))], red: ro.red + o, pos: b}
				}
			}
		}
		for x := range sp.SymmSends {
			progs[sp.SymmSends[x].Dst].expect2++
		}
		// The local contributions to Diag-Reduce K are the owned lower blocks.
		for _, r := range sp.DiagReduce.Tree.Participants() {
			p := progs[r]
			p.reds[p.diagRed[p.snode[k]]] = newCollRole(sp.DiagReduce, r, c0-1, p.side[core.Lower].roles[p.snode[k]].own)
			p.expect2 += len(sp.DiagReduce.Tree.Children(r))
		}
	}
	// Chain every task off the A⁻¹ slot it waits on (built back to front).
	for _, p := range progs {
		p.waiters = make([]int32, len(p.ainvKey))
		for s := len(plan.Sides()) - 1; s >= 0; s-- {
			for ti := len(p.side[s].tasks) - 1; ti >= 0; ti-- {
				t := &p.side[s].tasks[ti]
				t.next, p.waiters[t.av] = p.waiters[t.av], 1+(int32(ti)<<1|int32(s))
			}
		}
	}
	return &Engine{Plan: plan, LU: lu, tmpl: tm}
}

// blockID returns the id of block (blk, k), blk ∈ C(k), which its mirror
// shares: the one search an arriving message costs, all else is an index.
func blockID(plan *core.Plan, k, blk int) int32 {
	id, ok := plan.BP.BlockID(blk, k)
	if !ok {
		panic(fmt.Sprintf("pselinv: block %d not in the structure of supernode %d", blk, k))
	}
	return int32(id)
}

// Rebind returns a copy of the engine bound to a different numeric
// factorization. The template — the programs, the expensive part of NewEngine,
// and the run states they lay out — is shared with the receiver; the programs
// are immutable and every run takes its own state, so rebound engines may run
// concurrently. This is the warm path of a plan cache: same sparsity pattern,
// new values. Obs, Chaos and DAG are reset on the copy so per-run
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
	rr.Ainv.Range(func(_ blockmat.Key, b *dense.Matrix) { dense.PutMatrix(b) })
	rr.Ainv = nil
}

// Run executes the two passes on a fresh in-process world (with Chaos set,
// under a seeded delivery adversary) and gathers the result; for any other
// transport build the world with simmpi.NewWorldOn and use RunWorld. On error
// the world is closed; use RunWorld to snapshot a deadlocked world first.
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
// result. On a timeout the world is NOT closed, so the caller can take a
// chaos.Snapshot of the stuck ranks and in-flight messages first. A malformed
// reduce message (see reduceError) closes the world and fails the run at once.
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
	// The state goes back to the template only after a successful gather: a
	// failed or timed-out run leaves anything in it, its ranks maybe running.
	// The inbox rings travel with it, on an in-process transport: handed to
	// this world before any rank can send, taken back where the state is
	// cleared, so they never leave a failed run either.
	states := e.tmpl.takeStates()
	rings, _ := world.Transport().(ringTransport)
	if rings != nil {
		for r, st := range states {
			if st != nil && st.ring != nil {
				rings.AdoptRing(r, st.ring)
				st.ring = nil
			}
		}
	}
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
			st := e.bind(states, r)
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
	nblocks := 0
	for _, r := range world.LocalRanks() {
		nblocks += len(states[r].ainv)
	}
	res := &RunResult{Ainv: blockmat.New(e.Plan.BP.Part, nblocks), World: world, Elapsed: elapsed}
	var loads []core.RankLoad
	if e.Obs != nil {
		loads = e.Plan.RankLoads()
	}
	for _, r := range world.LocalRanks() {
		st := states[r]
		for v, m := range st.ainv {
			res.Ainv.Set(st.prog.ainvKey[v].I, st.prog.ainvKey[v].J, m)
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
		if rings != nil {
			st.ring = rings.ReclaimRing(r)
		}
	}
	e.tmpl.mu.Lock()
	if len(e.tmpl.idle) < maxIdleStates {
		e.tmpl.idle = append(e.tmpl.idle, states)
	}
	e.tmpl.mu.Unlock()
	return res, nil
}

// ringTransport is a transport whose inbox ring buffers can move from one
// world to the next (simmpi.InProc).
type ringTransport interface {
	AdoptRing(rank int, ring []simmpi.Message)
	ReclaimRing(rank int) []simmpi.Message
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
// [0, nlocal)), then its children's partial sums in Tree.Children order
// (positions [nlocal, n)), and sends the one resulting block to its parent.
// The bracketing is a property of the plan alone, so the result is
// bit-identical under any delivery order, chaos seed, DAG pool schedule and
// transport (DESIGN.md §5e).
//
// A contribution that finishes ahead of its turn waits in parts — a local
// one in the private scratch matrix its GEMM wrote (the race-freedom
// concurrent DAG tasks need), a child's payload by reference — and the
// in-order prefix is folded eagerly. The lowest local slot computes straight
// into sum. sum is arena-backed: taken on the run's first touch (reduction),
// nil again at completion, when ownership moves to the parent's mailbox, the
// finalized ainv block (row/col root) or back to the arena (diag root). parts
// stays with the state once made, all nil between runs.
//
// A packed reduction — a symmetric plan's Diag-Reduce — folds and sends lower
// triangles: each local contribution is packed in place (dense.PackLower)
// once computed, so sum's prefix of words() is the packed partial sum.
type redState struct {
	*collRole // the plan's reduction, and the rank's place in it
	sum       *dense.Matrix
	n         int         // nlocal + children
	next      int         // first fold position not yet in sum
	parts     [][]float64 // by fold position; made on the first out-of-turn arrival
	done      bool
	packed    bool
}

// words is the length of a contribution as folded and sent.
func (red *redState) words() int {
	if red.packed {
		return dense.PackedLen(red.sum.Rows) * red.sum.Width()
	}
	return len(red.sum.Data)
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
			for i, v := range data {
				red.sum.Data[i] += v
			}
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
	if red.packed {
		dense.PackLower(out, out.Data[:red.words()])
	}
	if pos == 0 {
		red.fold(0, nil)
		return
	}
	data := out.Data[:red.words()]
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
	pos := int(red.nlocal) + slices.Index(red.kids, msg.Src)
	var bad string
	switch {
	case pos < int(red.nlocal):
		bad = "sender is not a child of the receiver in the collective's tree"
	case pos < red.next || red.parts != nil && red.parts[pos] != nil:
		bad = "second payload from this child"
	case len(msg.Data) != red.words():
		bad = fmt.Sprintf("%d words, want %d of a %dx%d %s block (packed %v)", len(msg.Data), red.words(), red.sum.Rows, red.sum.Cols, st.elem, red.packed)
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
	prog *rankProgram

	side [2]sideState
	ainv []*dense.Matrix // finalized owned A⁻¹ blocks, nil until final
	red  []redState

	// sched, non-nil iff Engine.DAG, detours TRSM/GEMM-sized compute
	// through the worker-pool task scheduler (see dag.go); dag keeps the
	// scheduler, with its task free list and heap, for the next DAG run.
	sched, dag *dagSched

	// elem caches the factorization's element type: every payload and
	// arena request below is a rows×cols block of it.
	elem dense.Elem

	// ring is the rank's inbox ring buffer between runs (see RunWorld).
	ring []simmpi.Message
}

// bind binds rank r's state in the set to this run, laying it out when no
// earlier run has: slices sized exactly by what the rank touches.
func (e *Engine) bind(states []*rankState, r *simmpi.Rank) *rankState {
	st := states[r.ID]
	if st == nil {
		prog := e.tmpl.programs[r.ID]
		st = &rankState{prog: prog, ainv: make([]*dense.Matrix, len(prog.ainvKey)),
			red: make([]redState, len(prog.reds))}
		for x := range st.red {
			cr := &prog.reds[x]
			st.red[x] = redState{collRole: cr, n: int(cr.nlocal) + len(cr.kids),
				packed: e.Plan.Symmetric && cr.op.Kind == core.OpDiagReduce}
		}
		for s, ps := range prog.side {
			st.side[s] = sideState{hat: make([]*dense.Matrix, len(ps.cross)),
				bcast: make([]dense.Matrix, len(ps.bcasts)), taskDone: make([]bool, len(ps.tasks))}
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
// reduction has completed, so its sum has moved on and its parts are nil.
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
	for x := range st.red {
		st.red[x].next, st.red[x].done = 0, false
	}
	st.e, st.r = nil, nil
}

func (st *rankState) width(k int) int { return st.e.Plan.BP.Part.Width(k) }

// block wraps an arrived payload as the rows×cols block it must be.
func (st *rankState) block(rows, cols int, data []float64) dense.Matrix {
	if len(data) != rows*cols*st.elem.Width() {
		panic(fmt.Sprintf("pselinv: %s payload %d does not match %dx%d block", st.elem, len(data), rows, cols))
	}
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
		st.finalize(st.e.tmpl.ainv[core.Lower][st.e.tmpl.first[t.k]], t.out)
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
	for _, k := range st.prog.diagRoots {
		dk := st.e.LU.Diag(k)
		for _, s := range st.e.Plan.Sides() {
			payload := dk.Data
			if st.e.Plan.Symmetric {
				payload = dense.GetBuf(dense.PackedLen(dk.Rows) * dk.Width())
				dense.PackLower(dk, payload)
				st.side[s].bcast[st.prog.side[s].roles[st.prog.snode[k]].diag].Data = payload
			}
			st.diagArrived(s, k, payload, dk)
		}
	}
	st.recvAll(st.prog.expect1)
}

// diagArrived forwards the pass-1 payload of supernode k down side s's
// broadcast (the column on the lower side, the row on the upper) and
// normalizes every factor block this rank owns there against dk, the root's
// own factor — a receiver's is the payload, wrapped or unpacked in its slot.
func (st *rankState) diagArrived(s core.Side, k int, payload []float64, dk *dense.Matrix) {
	ps := &st.prog.side[s]
	ro := &ps.roles[st.prog.snode[k]]
	st.forward(&ps.bcasts[ro.diag], payload)
	if dk == nil && ro.own > 0 {
		w, slot := st.width(k), &st.side[s].bcast[ro.diag]
		if st.e.Plan.Symmetric {
			*slot = dense.Matrix{Rows: w, Cols: w, Elem: st.elem, Data: dense.GetBuf(w * w * st.elem.Width())}
			dense.UnpackLower(payload, slot)
		} else {
			*slot = st.block(w, w, payload)
		}
		dk = slot
	}
	for h := ro.hat; h < ro.hat+ro.own; h++ {
		i := ps.cross[h].Blk
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
func (st *rankState) forward(cr *collRole, payload []float64) {
	t0 := st.spanStart()
	for _, c := range cr.kids {
		st.r.Send(c, cr.op.Key(), wire[cr.op.Kind].class, payload)
	}
	st.collSpanEnd(cr, t0)
}

// collSpanEnd closes the span of this rank's part in collective cr.
func (st *rankState) collSpanEnd(cr *collRole, t0 time.Time) {
	if st.e.Obs == nil {
		return
	}
	role := "leaf"
	switch {
	case cr.parent < 0:
		role = "root"
	case len(cr.kids) > 0:
		role = "forwarder"
	}
	st.spanEnd(wire[cr.op.Kind].span, cr.op.K, role, t0)
}

// runPass2 is the asynchronous selected inversion proper. Past the barrier no
// rank reads a pass-1 payload, so it first hands a symmetric plan's diagonal
// factors — the packed one a root sent, one a receiver unpacked: the diagonal
// slots' buffers — back to the kernel arena for pass 2 to reuse. Its initial
// local actions are the leaf diagonals and the cross-sends of the ready L̂/Û.
func (st *rankState) runPass2() {
	for _, ro := range st.prog.side[core.Lower].roles {
		if ro.diag >= 0 && st.e.Plan.Symmetric {
			dense.PutBuf(st.side[core.Lower].bcast[ro.diag].Data)
		}
	}
	for _, k := range st.prog.leafDiags {
		inv := dense.GetMatrixUninitElem(st.width(k), st.width(k), st.elem)
		st.exec(task{kernel: kDiagInverse, span: "diag-inverse", k: k, out: inv})
	}
	for _, s := range st.e.Plan.Sides() {
		for h, po := range st.prog.side[s].cross {
			st.r.Send(po.Dst, po.Key(), wire[po.Kind].class, st.side[s].hat[h].Data)
		}
	}
	st.recvAll(st.prog.expect2)
}

// handle resolves an arrived message to this rank's slot — the supernode's
// role through snode, the block's place in it through the template's
// block-indexed tables — and acts on it.
func (st *rankState) handle(msg simmpi.Message) {
	kind, k, blk := core.DecodeOpKey(msg.Tag)
	s, tm, w := wire[kind].side, st.e.tmpl, st.width(k)
	ps, ss := &st.prog.side[s], &st.side[s]
	ro := &ps.roles[st.prog.snode[k]]
	switch kind {
	case core.OpDiagBcast, core.OpDiagBcastRow:
		st.diagArrived(s, k, msg.Data, nil)
	case core.OpCrossSend, core.OpColBcast, core.OpCrossSendU, core.OpRowBcast:
		// The normalized block L̂_{I,K} | Û_{K,I} arrives — by cross-send at
		// its broadcast root, else from the tree parent: forward it down the
		// tree (processor column I | row I), store it and fire the products
		// whose A⁻¹ operand is already final.
		id := blockID(st.e.Plan, k, blk)
		b := tm.pos[1-s][id]
		rows, cols := s.Block(st.width(blk), w)
		ss.bcast[ro.bcast+b] = st.block(rows, cols, msg.Data)
		st.forward(&ps.bcasts[ro.bcast+b], msg.Data)
		for ti := ro.task + b*ro.own; ti < ro.task+(b+1)*ro.own; ti++ {
			st.tryRun(s, ti)
		}
		if kind == core.OpCrossSendU {
			// The row-broadcast root is also the Row-Reduce root for block
			// (I,K), so the diagonal contribution for it may now fire.
			st.tryDiagContrib(k, blk, id)
		}
	case core.OpRowReduce, core.OpColReduce, core.OpDiagReduce:
		v := st.prog.diagRed[st.prog.snode[k]]
		if kind != core.OpDiagReduce {
			v = ro.red + tm.pos[s][blockID(st.e.Plan, k, blk)]
		}
		red := st.reduction(v)
		st.childArrived(red, msg)
		st.maybeComplete(red)
	case core.OpSymmSend:
		// Finalized A⁻¹_{J,K} arrives at the owner of (K, J); mirror it.
		// The payload is the sender's finalized block (not ours to recycle).
		low := st.block(st.width(blk), w, msg.Data)
		up := dense.GetMatrixUninitElem(low.Cols, low.Rows, low.Elem)
		low.TransposeInto(up)
		st.finalize(tm.ainv[core.Upper][blockID(st.e.Plan, k, blk)], up)
	default:
		panic(fmt.Sprintf("pselinv: unexpected %v message", kind))
	}
}

// finalize records the owned A⁻¹ block of slot v and fires any GEMM waiting
// on it.
func (st *rankState) finalize(v int32, m *dense.Matrix) {
	if st.ainv[v] != nil {
		panic(fmt.Sprintf("pselinv: block %v finalized twice", st.prog.ainvKey[v]))
	}
	st.ainv[v] = m
	for w := st.prog.waiters[v]; w != 0; {
		s, ti := core.Side((w-1)&1), (w-1)>>1
		w = st.prog.side[s].tasks[ti].next
		st.tryRun(s, ti)
	}
}

// tryRun executes side s's GEMM task ti when both operands are available,
// accumulating into the reduction for (K,J): A⁻¹_{J,I}·L̂_{I,K} into
// Row-Reduce on the lower side, Û_{K,I}·A⁻¹_{I,J} into Col-Reduce on the
// upper.
func (st *rankState) tryRun(s core.Side, ti int32) {
	ss := &st.side[s]
	t := &st.prog.side[s].tasks[ti]
	h, av := &ss.bcast[t.bc], st.ainv[t.av]
	if ss.taskDone[ti] || h.Data == nil || av == nil {
		return
	}
	ss.taskDone[ti] = true
	a, b := av, h
	if s == core.Upper {
		a, b = h, av
	}
	red, pos := st.reduction(t.red), int(t.pos)
	st.exec(task{kernel: kGemm, side: s, span: sideNames[s].gemm, k: int(t.k), i: int(t.i), j: int(t.j),
		a: a, b: b, out: red.localOut(pos), red: red, pos: pos})
}

// tryDiagContrib fires the diagonal contribution Û_{K,J}·A⁻¹_{J,K} at the
// owner of (J,K), block id, into the Diag-Reduce sum, once both operands
// exist. On the symmetric plan Û_{K,J} is the rank's own L̂_{J,K} transposed
// and the Row-Reduce finalization of A⁻¹_{J,K} is the only caller. On the
// general plan it is the block the Û cross-send delivers here: two events
// complete the pair, both handlers call in and the later one fires.
func (st *rankState) tryDiagContrib(k, j int, id int32) {
	li := st.prog.snode[k]
	// The rank contributes once per owned block (J,K), ascending: the block's
	// position on this grid row is its hat offset and its fold position.
	pos := st.e.tmpl.pos[core.Lower][id]
	u, ta := st.side[core.Lower].hat[st.prog.side[core.Lower].roles[li].hat+pos], dense.DoTrans
	if !st.e.Plan.Symmetric {
		u, ta = &st.side[core.Upper].bcast[st.prog.side[core.Upper].roles[li].bcast+pos], dense.NoTrans
	}
	av := st.ainv[st.e.tmpl.ainv[core.Lower][id]]
	if u.Data == nil || av == nil {
		return
	}
	red := st.reduction(st.prog.diagRed[li])
	st.exec(task{kernel: kGemm, ta: ta, side: core.Upper, span: "gemm", k: k, i: j, j: k,
		a: u, b: av, out: red.localOut(int(pos)), red: red, pos: int(pos)})
}

// reduction returns this rank's state of the reduction in slot v, giving it
// its zeroed sum on the run's first touch.
func (st *rankState) reduction(v int32) *redState {
	red := &st.red[v]
	if red.sum == nil && !red.done { // Diag-Reduce has Blk = K
		rows, cols := wire[red.op.Kind].side.Block(st.width(red.op.Blk), st.width(red.op.K))
		red.sum = dense.GetMatrixElem(rows, cols, st.elem)
	}
	return red
}

// maybeComplete sends a finished partial sum up the reduce tree, or — at the
// root — finalizes the block the reduction computes.
func (st *rankState) maybeComplete(red *redState) {
	if red.done || red.next < red.n {
		return
	}
	red.done = true
	op, k := red.op, red.op.K
	t0 := st.spanStart()
	m, words := red.sum, red.words()
	red.sum = nil // ownership moves on: see redState
	if red.parent >= 0 {
		// The buffer travels up the tree; the parent recycles it.
		st.r.Send(int(red.parent), op.Key(), wire[op.Kind].class, m.Data[:words])
		st.collSpanEnd(red.collRole, t0)
		return
	}
	if op.Kind == core.OpDiagReduce {
		// A⁻¹_{K,K} = A_KK⁻¹ − Σ, both exactly symmetric on a symmetric plan.
		st.collSpanEnd(red.collRole, t0)
		if red.packed {
			dense.UnpackLower(m.Data[:words], m)
			dense.MirrorLower(m)
		}
		diag := dense.GetMatrixUninitElem(st.width(k), st.width(k), st.elem)
		st.exec(task{kernel: kDiagInverse, span: "diag-inverse", k: k, a: m, out: diag})
		return
	}
	// A⁻¹_{J,K} | A⁻¹_{K,J} = −Σ, released via RunResult.Release.
	m.Scale(-1)
	st.collSpanEnd(red.collRole, t0)
	s := wire[op.Kind].side
	st.finalize(st.e.tmpl.ainv[s][red.id], m)
	if s == core.Upper {
		return
	}
	if st.e.Plan.Symmetric {
		// Mirror to the upper triangle, which the general plan computes by
		// its own reductions instead.
		so := &st.e.Plan.Snodes[k].SymmSends[red.id-st.e.tmpl.first[k]-1]
		st.r.Send(so.Dst, so.Key(), wire[so.Kind].class, m.Data)
	}
	st.tryDiagContrib(k, op.Blk, red.id)
}
