package core

import (
	"fmt"
	"sync"
	"testing"

	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

// checkInterned holds a plan to one tree per shape: the collectives whose
// trees are equal share one *Tree, and no two distinct pointers are equal
// trees. It returns the number of collectives and of distinct trees.
func checkInterned(p *Plan) (ops, trees int, err error) {
	byShape := map[string]*Tree{}
	seen := map[*Tree]bool{}
	for _, sp := range p.Snodes {
		sp.EachOp(func(op *CollOp) {
			ops++
			seen[op.Tree] = true
			shape := fmt.Sprint(op.Tree.Root, op.Tree.parts, op.Tree.up, op.Tree.first, op.Tree.kids)
			if t, ok := byShape[shape]; !ok {
				byShape[shape] = op.Tree
			} else if t != op.Tree && err == nil {
				err = fmt.Errorf("%v K=%d blk %d: an equal tree is another pointer", op.Kind, op.K, op.Blk)
			}
		}, func(*PointOp) {})
	}
	if err == nil && len(seen) != len(byShape) {
		err = fmt.Errorf("%d tree pointers for %d shapes", len(seen), len(byShape))
	}
	return ops, len(seen), err
}

// coldPattern is the block pattern of the cold upload's matrix: Grid2D 96²
// under nested dissection on its graph, relax 4 and width 48.
func coldPattern() *etree.BlockPattern {
	g := sparse.Grid2D(96, 96, 1)
	perm := ordering.Compute(ordering.NestedDissection, g.A, nil)
	return etree.AnalyzeOrder(g.A, perm, etree.Options{Relax: 4, MaxWidth: 48}).BP
}

// TestInternedTreesCold pins the cold plan (P = 16, shifted, symmetric) at
// 292 distinct trees for its 28,318 collectives, one pointer each.
func TestInternedTreesCold(t *testing.T) {
	plan := NewPlanConfig(coldPattern(), procgrid.Squarish(16), PlanConfig{Scheme: ShiftedBinaryTree, Seed: 1, Symmetric: true})
	ops, trees, err := checkInterned(plan)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 28318 || trees != 292 {
		t.Fatalf("%d collectives over %d trees, want 28318 over 292", ops, trees)
	}
}

// TestInternedTreesConcurrentPlans builds plans of every scheme at once, as
// the daemon builds templates for several patterns: each plan's intern table
// is its own, so every plan is the one built alone.
func TestInternedTreesConcurrentPlans(t *testing.T) {
	bp, grid := randomPattern(120, 4, 3), procgrid.New(4, 4)
	var wg sync.WaitGroup
	for _, s := range AllSchemes() {
		for _, sym := range []bool{true, false} {
			cfg := PlanConfig{Scheme: s, Seed: 5, Symmetric: sym}
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, want := NewPlanConfig(bp, grid, cfg), perBlockPlan(bp, grid, cfg)
				if _, _, err := checkInterned(got); err != nil {
					t.Errorf("%v: %v", s, err)
				}
				for k, sp := range got.Snodes {
					if err := checkGroups(sp, want.Snodes[k], got.Owners.OwnerOfBlock); err != nil {
						t.Errorf("%v K=%d: %v", s, k, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}
