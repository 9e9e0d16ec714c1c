package core

import (
	"fmt"

	"pselinv/internal/etree"
	"pselinv/internal/procgrid"
)

// validateTree checks the tree invariants: every participant is reachable
// from the root exactly once and parent/children are mutually consistent.
func validateTree(t *Tree) error {
	root := t.Pos(t.Root)
	if root < 0 {
		return fmt.Errorf("core: root %d not a participant", t.Root)
	}
	seen := make([]bool, len(t.parts))
	stack := []int{root}
	reached := 0
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[i] {
			return fmt.Errorf("core: rank %d reached twice", t.parts[i])
		}
		seen[i] = true
		reached++
		for _, c := range t.childrenAt(i) {
			j := t.Pos(c)
			if j < 0 || int(t.up[j]) != i {
				return fmt.Errorf("core: parent/children inconsistent at %d -> %d", t.parts[i], c)
			}
			stack = append(stack, j)
		}
	}
	if reached != len(t.parts) {
		return fmt.Errorf("core: reached %d ranks, want %d", reached, len(t.parts))
	}
	return nil
}

// expectedBytes is the total the plan moves between distinct ranks for one
// operation kind, counted from the trees' sizes rather than their edges:
// every tree edge carries one payload; point ops count unless source and
// destination coincide.
func expectedBytes(p *Plan, kind OpKind) int64 {
	var total int64
	for _, sp := range p.Snodes {
		sp.EachOp(func(op *CollOp) {
			if op.Kind == kind {
				total += int64(op.Tree.Size()-1) * op.Bytes
			}
		}, func(op *PointOp) {
			if op.Kind == kind && op.Src != op.Dst {
				total += op.Bytes
			}
		})
	}
	return total
}

// perBlockPlan is the plan builder of before collectives were grouped, kept as
// the oracle of the grouping: one collective per block of C(K) and kind, one
// point op per block, each over the tree of its own OpKey. Every op carries
// its one block in Blks.
func perBlockPlan(bp *etree.BlockPattern, grid *procgrid.Grid, cfg PlanConfig) *Plan {
	if cfg.Topo.CoresPerNode == 0 {
		cfg.Topo = defaultTopology()
	}
	p := &Plan{BP: bp, Grid: grid, Scheme: cfg.Scheme, Seed: cfg.Seed,
		Symmetric: cfg.Symmetric, Topo: cfg.Topo, Balancer: cfg.Balancer,
		Owners: cfg.Balancer.assign(bp, grid)}
	ns := bp.NumSnodes()
	p.Snodes = make([]*SupernodePlan, ns)
	for k := 0; k < ns; k++ {
		sp := &SupernodePlan{K: k, Width: bp.Part.Width(k), C: bp.Struct(k)}
		p.Snodes[k] = sp
		if len(sp.C) == 0 {
			continue
		}
		for _, s := range p.Sides() {
			o := oracleSide(p, sp, s)
			if s == Lower {
				sp.DiagBcast, sp.Cross, sp.ColBcasts, sp.RowReduces = o.DiagBcast, o.Cross, o.Bcasts, o.Reduces
			} else {
				sp.DiagBcastRow, sp.CrossU, sp.RowBcasts, sp.ColReduces = o.DiagBcast, o.Cross, o.Bcasts, o.Reduces
			}
		}
		wk := int64(sp.Width)
		owner := p.Owners.OwnerOfBlock
		dred := oracleColl(p, OpDiagReduce, k, k, p.diagBytes(wk), owner(k, k), sp.C,
			func(j int) int { return owner(j, k) })
		sp.DiagReduce = &dred
		if p.Symmetric {
			for _, j := range sp.C {
				sp.SymmSends = append(sp.SymmSends, PointOp{
					Kind: OpSymmSend, K: k, Blk: j, Blks: []int{j}, Src: owner(j, k), Dst: owner(k, j),
					Bytes: int64(bp.Part.Width(j)) * wk * 8,
				})
			}
		}
	}
	return p
}

func oracleSide(p *Plan, sp *SupernodePlan, s Side) sideOps {
	k, kinds := sp.K, sideKinds[s]
	wk := int64(sp.Width)
	owner := func(i, j int) int { return p.Owners.OwnerOfBlock(s.Block(i, j)) }
	dbc := oracleColl(p, kinds.diagBcast, k, k, p.diagBytes(wk), owner(k, k), sp.C,
		func(i int) int { return owner(i, k) })
	ops := sideOps{DiagBcast: &dbc}
	for _, i := range sp.C {
		bytes := int64(p.BP.Part.Width(i)) * wk * 8
		root := owner(k, i)
		ops.Cross = append(ops.Cross, PointOp{Kind: kinds.cross, K: k, Blk: i, Blks: []int{i},
			Src: owner(i, k), Dst: root, Bytes: bytes})
		ops.Bcasts = append(ops.Bcasts, oracleColl(p, kinds.bcast, k, i, bytes, root, sp.C,
			func(j int) int { return owner(j, i) }))
		ops.Reduces = append(ops.Reduces, oracleColl(p, kinds.reduce, k, i, bytes, owner(i, k), sp.C,
			func(j int) int { return owner(i, j) }))
	}
	return ops
}

func oracleColl(p *Plan, kind OpKind, k, blk int, bytes int64, root int, c []int, part func(x int) int) CollOp {
	ranks := []int{root}
	for _, x := range c {
		ranks = append(ranks, part(x))
	}
	return CollOp{Kind: kind, K: k, Blk: blk, Blks: []int{blk}, Bytes: bytes,
		Tree: NewTreeTopo(p.Scheme, root, ranks, p.Seed, OpKey(kind, k, blk), p.Topo)}
}
