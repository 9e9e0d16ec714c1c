package core

import "pselinv/internal/etree"

// Program is one rank's part of a plan, compiled once by Compile: what the
// rank receives in each pass, its role in every supernode it takes part in,
// its collectives, its block products and the A⁻¹ blocks it owns, numbered
// into dense per-rank slots so that nothing is looked up by name during a
// run. internal/pselinv executes the programs; internal/netsim costs them.
type Program struct {
	Expect1, Expect2 int // messages this rank receives in pass 1 | pass 2

	DiagRoots []int // supernodes whose diagonal block this rank owns (C non-empty)
	LeafDiags []int // supernodes with empty C whose diagonal this rank owns

	// Snode maps a supernode to the index of this rank's role in it, -1 for
	// none: the one table sized by the pattern, not by what the rank touches.
	Snode   []int32
	DiagRed []int32        // by role index: the Diag-Reduce slot in Reds, -1 when not in it
	Side    [2]sideProgram // the upper side stays empty on a symmetric plan
	Reds    []CollRole     // by reduction slot
	Ainv    []int32        // by A⁻¹ slot: the owned block's pattern slot (etree.BlockPattern.Slot)
	// Waiters heads, by A⁻¹ slot, the chain of tasks waiting on the block:
	// 1 + (task index<<1 | side), ascending, the lower side's first; 0 ends it.
	Waiters []int32
	// By lower hat slot, an owned block (J,K) of C: its contribution
	// Û_{K,J}·A⁻¹_{J,K} to Diag-Reduce K. Bc is the hat slot on a symmetric
	// plan (Û is L̂ᵀ), the upper broadcast slot the Û cross-send fills on the
	// general one. A symmetric plan also mirrors the finalized A⁻¹_{J,K} to
	// the owner of (K,J), the destination of the hat's cross-send.
	Contribs []gemm

	// The block tables every program of a plan shares. Block (C[x], K) and its
	// mirror have id First[K]+1+x, (K,K) has First[K]; Pos[0|1][id] counts the
	// earlier blocks of C on the block's grid row | column; AinvSlot[side][id]
	// is the owner's A⁻¹ slot of the lower block | its mirror: the two halves
	// of one array by pattern slot (etree.BlockPattern.Slot).
	First         []int32
	Pos, AinvSlot [2][]int32
	bp            *etree.BlockPattern
}

// CollRole is a rank's part in one collective of the plan, resolved once so
// that no message handler searches the tree: its position in it, its parent,
// the block and, for a reduction, how many local products it folds ahead of
// its children's sums.
type CollRole struct {
	Op     *CollOp
	Pos    int32 // the rank's position in Op.Tree.Participants()
	Parent int32 // Op.Tree.Parent(rank): -1 at the root
	NLocal int32
	ID     int32 // block id (Program.First) of the slot's block, one of Op.Blks
}

// Kids returns the rank's children in the collective's tree, in link order:
// the tree's own storage.
func (cr *CollRole) Kids() []int { return cr.Op.Tree.childrenAt(int(cr.Pos)) }

func newCollRole(op *CollOp, rank int, id, nlocal int32) CollRole {
	pos := op.Tree.Pos(rank)
	return CollRole{Op: op, Pos: int32(pos), Parent: int32(op.Tree.parentAt(pos)), NLocal: nlocal, ID: id}
}

// sideRole is a rank's share of one supernode K on one side. The owner map is
// factored (procgrid.Map), so it is a product: Own blocks of C lie on the
// rank's grid line along the side's own axis (its grid row on the lower side,
// column on the upper), Bc blocks on its line along the other, the broadcast
// axis. It takes part in Own reductions, Bc broadcasts and Bc×Own products,
// and owns the Own factor blocks when it sits on K's line (Diag ≥ 0) — each
// numbered from a first slot by the block's position among the blocks of C on
// the same line (Program.Pos). The product of broadcast block b and reduction
// o is Task + b·Own + o, at fold position b.
type sideRole struct {
	Own, Bc, Hat, Bcast, Red, Task int32
	Diag                           int32 // broadcast slot of K's pass-1 diagonal broadcast, -1 when not in it
}

// sideProgram is a rank's role on one side of the second loop, by slot.
type sideProgram struct {
	Roles  []sideRole  // by Program.Snode
	Cross  []crossRole // by hat slot
	Bcasts []CollRole  // by broadcast slot
	Tasks  []gemm
}

// crossRole is a hat slot's owned block L_{I,K} | U_{K,I}, I = Blk, and its cross-send.
type crossRole struct {
	Op  *PointOp
	Blk int
}

// gemm is one local matrix product: A⁻¹_{J,I}·L̂_{I,K} on the lower side,
// Û_{K,I}·A⁻¹_{I,J} on the upper, with the rank's slots of the broadcast
// operand (Bc), the A⁻¹ operand (Av) and the reduction it contributes to
// (Red). Pos is its fold position among the rank's contributions to that
// reduction: ascending index of the broadcast block within C. Next chains the
// tasks waiting on one A⁻¹ slot (Program.Waiters).
type gemm struct{ K, I, J, Bc, Av, Red, Pos, Next int32 }

// Compile derives every rank's program from the plan.
func Compile(plan *Plan) []*Program {
	bp, own, grid := plan.BP, plan.Owners, plan.Grid
	ns, nb := bp.NumSnodes(), bp.NNZBlocks()
	ainv := make([]int32, 2*nb) // by pattern slot
	shared := Program{First: make([]int32, ns), Pos: [2][]int32{make([]int32, nb), make([]int32, nb)},
		AinvSlot: [2][]int32{ainv[:nb], ainv[nb:]}, bp: bp}
	progs := make([]*Program, grid.Size())
	for r := range progs {
		p := shared
		p.Snode = make([]int32, ns)
		for k := range p.Snode {
			p.Snode[k] = -1
		}
		progs[r] = &p
	}
	first, pos := shared.First, shared.Pos
	// First the slots a rank's state is laid out by, so that every slot array
	// is allocated once, at its final size: each A⁻¹ block's at its owner, each
	// block's position along both grid axes and, for every rank on a grid row
	// and a grid column that C ∪ {K} reaches — exactly the participants — its
	// role: counts and first slots. A counting round sizes the A⁻¹ and role
	// arrays that a second round fills.
	type counts struct {
		red, ainv, roles int32
		side             [2]struct{ hat, bcast, task int32 }
	}
	n := make([]counts, len(progs))
	claim := func(i, j int) { // block (i, j) takes its owner's next A⁻¹ slot, keyed in the filling round
		s, _ := bp.Slot(i, j)
		r := own.OwnerOfBlock(i, j)
		if v := n[r].ainv; int(v) < len(progs[r].Ainv) {
			progs[r].Ainv[v] = int32(s)
		}
		ainv[s] = n[r].ainv
		n[r].ainv++
	}
	lineCnt := [2][]int32{make([]int32, grid.Pr), make([]int32, grid.Pc)}
	for round := range 2 { // a counting round, then a filling round
		for k := 0; k < ns; k++ {
			id, _ := bp.Slot(k, k)
			first[k] = int32(id)
			clear(lineCnt[0])
			clear(lineCnt[1])
			for x, i := range bp.RowsOf[k] {
				claim(i, k)
				if x == 0 {
					continue
				}
				claim(k, i)
				for ax, line := range [2]int{own.RowOf[i], own.ColOf[i]} {
					pos[ax][id+x] = lineCnt[ax][line]
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
					if round == 0 {
						c.roles++
						continue
					}
					p.Snode[k] = int32(len(p.DiagRed))
					for _, s := range plan.Sides() {
						cs := &c.side[s]
						ro := sideRole{Own: cnt[s], Bc: cnt[1-s], Hat: cs.hat, Bcast: cs.bcast, Red: c.red, Task: cs.task, Diag: -1}
						cs.bcast, c.red, cs.task = cs.bcast+ro.Bc, c.red+ro.Own, cs.task+ro.Bc*ro.Own
						if onK[s] { // in the pass-1 diagonal broadcast: owns the side's own factor blocks
							ro.Diag, cs.bcast, cs.hat = cs.bcast, cs.bcast+1, cs.hat+ro.Own
						}
						p.Side[s].Roles = append(p.Side[s].Roles, ro)
					}
					if p.DiagRed = append(p.DiagRed, -1); onK[Lower] { // in Diag-Reduce K
						p.DiagRed[p.Snode[k]], c.red = c.red, c.red+1
					}
				}
			}
		}
		for r, p := range progs[:len(progs)*(1-round)] { // only after the counting round
			p.Ainv, p.DiagRed = make([]int32, n[r].ainv), make([]int32, 0, n[r].roles)
			for _, s := range plan.Sides() {
				p.Side[s].Roles = make([]sideRole, 0, n[r].roles)
			}
			n[r] = counts{}
		}
	}
	for r, p := range progs {
		p.Reds = make([]CollRole, n[r].red)
		for s, c := range n[r].side {
			ps := &p.Side[s]
			ps.Cross, ps.Bcasts, ps.Tasks = make([]crossRole, c.hat), make([]CollRole, c.bcast), make([]gemm, c.task)
		}
		p.Contribs = make([]gemm, n[r].side[Lower].hat)
	}
	// Last the plan's operations into their slots, each block of a group into
	// its own. Every non-root participant of a broadcast receives one message
	// per group; every participant of a reduction one per child.
	at := make([]int32, ns) // at[i]: the id of block (i, K) of the supernode at hand
	for _, sp := range plan.Snodes {
		k := sp.K
		diagOwner := own.OwnerOfBlock(k, k)
		if len(sp.C) == 0 {
			progs[diagOwner].LeafDiags = append(progs[diagOwner].LeafDiags, k)
			continue
		}
		progs[diagOwner].DiagRoots = append(progs[diagOwner].DiagRoots, k)
		c0 := first[k] + 1 // id of block C[0]
		for x, i := range sp.C {
			at[i] = c0 + int32(x)
		}
		for _, s := range plan.Sides() {
			ops, along, across := sp.side(s), pos[s], pos[1-s]
			role := func(rank int) (*Program, *sideProgram, *sideRole) {
				p := progs[rank]
				return p, &p.Side[s], &p.Side[s].Roles[p.Snode[k]]
			}
			// Pass 1: diagonal broadcast receives.
			for _, r := range ops.DiagBcast.Tree.Participants() {
				p, ps, ro := role(r)
				if ps.Bcasts[ro.Diag] = newCollRole(ops.DiagBcast, r, c0-1, 0); r != ops.DiagBcast.Tree.Root {
					p.Expect1++
				}
			}
			// Pass 2: broadcasts, reductions, cross sends.
			for x := range ops.Bcasts {
				bc := &ops.Bcasts[x]
				for _, r := range bc.Tree.Participants() {
					p, ps, ro := role(r)
					cr := newCollRole(bc, r, 0, 0)
					for _, b := range bc.Blks {
						cr.ID = at[b]
						ps.Bcasts[ro.Bcast+across[cr.ID]] = cr
					}
					if r != bc.Tree.Root {
						p.Expect2++
					}
				}
			}
			for x := range ops.Reduces {
				rd, id := &ops.Reduces[x], c0+int32(x)
				for _, r := range rd.Tree.Participants() {
					p, _, ro := role(r)
					p.Reds[ro.Red+along[id]] = newCollRole(rd, r, id, ro.Bc)
					p.Expect2 += len(rd.Tree.Children(r))
				}
			}
			for x := range ops.Cross {
				po := &ops.Cross[x]
				p, ps, ro := role(po.Src)
				if progs[po.Dst].Expect2++; s == Lower && plan.Symmetric { // and a mirror send per block
					progs[po.Dst].Expect2 += len(po.Blks)
				}
				for _, blk := range po.Blks {
					id, h := at[blk], ro.Hat+along[at[blk]]
					ps.Cross[h] = crossRole{po, blk}
					if s == Lower { // at the owner of (J,K): its diagonal contribution
						li := p.Snode[k]
						p.Contribs[h] = gemm{K: int32(k), I: int32(blk), J: int32(k), Bc: h, Av: ainv[id], Red: p.DiagRed[li], Pos: along[id]}
						if !plan.Symmetric {
							p.Contribs[h].Bc = p.Side[Upper].Roles[li].Bcast + along[id]
						}
					}
				}
			}
			// The products, at the owner of their A⁻¹ operand.
			for x, i := range sp.C {
				for y, j := range sp.C {
					b, o := across[int(c0)+x], along[int(c0)+y]
					row, col := s.Block(j, i)
					_, ps, ro := role(own.OwnerOfBlock(row, col))
					sl, _ := bp.Slot(row, col)
					ps.Tasks[ro.Task+b*ro.Own+o] = gemm{K: int32(k), I: int32(i), J: int32(j), Bc: ro.Bcast + b,
						Av: ainv[sl], Red: ro.Red + o, Pos: b}
				}
			}
		}
		// The local contributions to Diag-Reduce K are the owned lower blocks.
		for _, r := range sp.DiagReduce.Tree.Participants() {
			p := progs[r]
			p.Reds[p.DiagRed[p.Snode[k]]] = newCollRole(sp.DiagReduce, r, c0-1, p.Side[Lower].Roles[p.Snode[k]].Own)
			p.Expect2 += len(sp.DiagReduce.Tree.Children(r))
		}
	}
	// Chain every task off the A⁻¹ slot it waits on (built back to front).
	for _, p := range progs {
		p.Waiters = make([]int32, len(p.Ainv))
		for s := len(plan.Sides()) - 1; s >= 0; s-- {
			for ti := len(p.Side[s].Tasks) - 1; ti >= 0; ti-- {
				t := &p.Side[s].Tasks[ti]
				t.Next, p.Waiters[t.Av] = p.Waiters[t.Av], 1+(int32(ti)<<1|int32(s))
			}
		}
	}
	return progs
}

// Slot resolves a message tag's (kind, K, blk) to the slot it fills at this
// rank: a broadcast slot of the kind's side for the diagonal, cross-send and
// broadcast kinds, a reduction slot (Reds) for the reductions, the A⁻¹ slot of
// the mirror (K, blk) for OpSymmSend. ok is false when the rank has no such
// slot — an unknown kind, a supernode the rank takes no part in, a block not
// in C(K), or a collective of K the rank is not in. A message carries its
// op's blocks and fills the first one's slot: blks are they, nil for the rest.
func (p *Program) Slot(kind OpKind, k, blk int) (slot int32, blks []int, ok bool) {
	if kind < 0 || int(kind) >= len(opKindNames) || k < 0 || k >= len(p.Snode) || p.Snode[k] < 0 || blk < k {
		return -1, nil, false
	}
	s, li := Side(kind/OpDiagBcastRow), p.Snode[k] // the general path's kinds are the upper side's
	diag := kind == OpDiagBcast || kind == OpDiagBcastRow || kind == OpDiagReduce
	id, inC := p.bp.Slot(blk, k)
	if diag != (blk == k) || !inC || int(li) >= len(p.Side[s].Roles) {
		return -1, nil, false
	}
	ro, roles := &p.Side[s].Roles[li], p.Side[s].Bcasts
	switch kind {
	case OpDiagBcast, OpDiagBcastRow:
		slot, ok = ro.Diag, ro.Diag >= 0
	case OpDiagReduce:
		slot, roles, ok = p.DiagRed[li], p.Reds, p.DiagRed[li] >= 0
	case OpSymmSend:
		v, x := p.AinvSlot[Upper][id], id-int(p.First[k])
		if mirror, _ := p.bp.Slot(k, blk); int(v) >= len(p.Ainv) || p.Ainv[v] != int32(mirror) {
			return -1, nil, false
		}
		return v, p.bp.RowsOf[k][x : x+1 : x+1], true // a mirror send carries its one block
	case OpRowReduce, OpColReduce:
		slot, roles = ro.Red+p.Pos[s][id], p.Reds
		ok = p.Pos[s][id] < ro.Own && roles[slot].ID == int32(id) // the side's reductions, so the kind's
	default: // a cross-send fills its broadcast's root slot; a broadcast message any other
		slot = ro.Bcast + p.Pos[1-s][id]
		ok = p.Pos[1-s][id] < ro.Bc && roles[slot].ID == int32(id) && (kind == OpCrossSend || kind == OpCrossSendU) == (roles[slot].Parent < 0)
	}
	if !ok {
		return -1, nil, false
	}
	if op := roles[slot].Op; op.Blk == blk { // the first of an op's blocks names its message
		blks = op.Blks
	}
	return slot, blks, true
}
