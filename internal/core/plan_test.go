package core

import (
	"fmt"
	"testing"

	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

func testPattern(t *testing.T) *etree.BlockPattern {
	t.Helper()
	g := sparse.Grid2D(8, 8, 1)
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	an := etree.Analyze(g.A.Permute(perm), perm, etree.Options{Relax: 2, MaxWidth: 8})
	return an.BP
}

func TestPlanCoversEverySupernode(t *testing.T) {
	bp := testPattern(t)
	grid := procgrid.New(3, 4)
	p := NewPlan(bp, grid, ShiftedBinaryTree, 42)
	if len(p.Snodes) != bp.NumSnodes() {
		t.Fatalf("plan has %d supernodes, want %d", len(p.Snodes), bp.NumSnodes())
	}
	for k, sp := range p.Snodes {
		if sp.K != k {
			t.Fatalf("supernode plan %d mislabeled %d", k, sp.K)
		}
		if len(sp.C) == 0 {
			if sp.DiagBcast != nil || sp.DiagReduce != nil || len(sp.ColBcasts) > 0 {
				t.Fatalf("leafless supernode %d has collectives", k)
			}
			continue
		}
		if sp.DiagBcast == nil || sp.DiagReduce == nil {
			t.Fatalf("supernode %d missing diagonal collectives", k)
		}
		// Every block of C is in exactly one group of each kind, in C order.
		for _, blks := range [][][]int{collBlks(sp.ColBcasts), collBlks(sp.RowReduces), pointBlks(sp.Cross), pointBlks(sp.SymmSends)} {
			if err := coversInOrder(blks, sp.C); err != nil {
				t.Fatalf("supernode %d: %v", k, err)
			}
		}
	}
}

func TestPlanRootsAndParticipants(t *testing.T) {
	bp := testPattern(t)
	grid := procgrid.New(3, 4)
	p := NewPlan(bp, grid, BinaryTree, 1)
	for _, sp := range p.Snodes {
		k := sp.K
		if sp.DiagBcast != nil {
			if sp.DiagBcast.Tree.Root != grid.OwnerOfBlock(k, k) {
				t.Fatalf("K=%d: DiagBcast root wrong", k)
			}
			// All participants in processor column of block column K.
			for _, r := range sp.DiagBcast.Tree.Participants() {
				_, col := grid.Coords(r)
				if col != grid.ProcColOfBlock(k) {
					t.Fatalf("K=%d: DiagBcast participant %d outside column group", k, r)
				}
			}
		}
		for _, cb := range sp.ColBcasts {
			if cb.Blk != cb.Blks[0] {
				t.Fatalf("K=%d: ColBcast tag block %d is not its group's first %d", k, cb.Blk, cb.Blks[0])
			}
			for _, i := range cb.Blks {
				if cb.Tree.Root != grid.OwnerOfBlock(k, i) {
					t.Fatalf("K=%d I=%d: ColBcast root wrong", k, i)
				}
				for _, r := range cb.Tree.Participants() {
					_, col := grid.Coords(r)
					if col != grid.ProcColOfBlock(i) {
						t.Fatalf("K=%d I=%d: ColBcast participant %d outside column %d",
							k, i, r, grid.ProcColOfBlock(i))
					}
				}
			}
		}
		for _, rr := range sp.RowReduces {
			if rr.Blk != rr.Blks[0] {
				t.Fatalf("K=%d: RowReduce tag block %d is not its group's first %d", k, rr.Blk, rr.Blks[0])
			}
			for _, j := range rr.Blks {
				if rr.Tree.Root != grid.OwnerOfBlock(j, k) {
					t.Fatalf("K=%d J=%d: RowReduce root wrong", k, j)
				}
				for _, r := range rr.Tree.Participants() {
					row, _ := grid.Coords(r)
					if row != grid.ProcRowOfBlock(j) {
						t.Fatalf("K=%d J=%d: RowReduce participant %d outside row group", k, j, r)
					}
				}
			}
		}
		for _, po := range sp.Cross {
			for _, i := range po.Blks {
				if po.Src != grid.OwnerOfBlock(i, k) || po.Dst != grid.OwnerOfBlock(k, i) {
					t.Fatalf("K=%d I=%d: cross send endpoints wrong", k, i)
				}
			}
		}
		for _, po := range sp.SymmSends {
			for _, j := range po.Blks {
				if po.Src != grid.OwnerOfBlock(j, k) || po.Dst != grid.OwnerOfBlock(k, j) {
					t.Fatalf("K=%d J=%d: symm send endpoints wrong", k, j)
				}
			}
		}
	}
}

func TestPlanBytesPositive(t *testing.T) {
	bp := testPattern(t)
	p := NewPlan(bp, procgrid.New(2, 3), FlatTree, 9)
	for _, sp := range p.Snodes {
		for _, cb := range sp.ColBcasts {
			if cb.Bytes <= 0 {
				t.Fatalf("K=%d: non-positive ColBcast bytes", sp.K)
			}
		}
		for _, po := range sp.Cross {
			if po.Bytes <= 0 {
				t.Fatalf("K=%d: non-positive cross bytes", sp.K)
			}
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	bp := testPattern(t)
	grid := procgrid.New(4, 4)
	a := NewPlan(bp, grid, ShiftedBinaryTree, 77)
	b := NewPlan(bp, grid, ShiftedBinaryTree, 77)
	for k := range a.Snodes {
		sa, sb := a.Snodes[k], b.Snodes[k]
		if len(sa.ColBcasts) != len(sb.ColBcasts) {
			t.Fatal("plans differ")
		}
		for x := range sa.ColBcasts {
			ta, tb := sa.ColBcasts[x].Tree, sb.ColBcasts[x].Tree
			for _, r := range ta.Participants() {
				ca, cb := ta.Children(r), tb.Children(r)
				if len(ca) != len(cb) {
					t.Fatalf("plan trees differ at K=%d", k)
				}
				for i := range ca {
					if ca[i] != cb[i] {
						t.Fatalf("plan trees differ at K=%d", k)
					}
				}
			}
		}
	}
}

func TestPlanManyCollectives(t *testing.T) {
	// The motivation of §III: far more collectives (and distinct groups)
	// than MPI communicator capacity would allow to pre-create.
	bp := testPattern(t)
	p := NewPlan(bp, procgrid.New(4, 4), ShiftedBinaryTree, 1)
	collectives, groups := 0, map[string]bool{}
	for _, sp := range p.Snodes {
		sp.EachOp(func(op *CollOp) {
			collectives++
			groups[fmt.Sprint(op.Tree.Participants())] = true
		}, func(*PointOp) {})
	}
	if collectives < bp.NumSnodes() {
		t.Fatalf("suspiciously few collectives: %d", collectives)
	}
	if len(groups) < 2 {
		t.Fatalf("expected multiple distinct groups, got %d", len(groups))
	}
}

// TestEachOpVisitsEveryOpOnce: the walker reaches every op a supernode holds
// exactly once, on both plan variants — through the pinned field names, so a
// field the walker forgot shows up here — and through the ops' groups every
// block of C exactly once per kind (K once for the diag kinds).
func TestEachOpVisitsEveryOpOnce(t *testing.T) {
	bp := testPattern(t)
	for _, symmetric := range []bool{true, false} {
		p := NewPlanConfig(bp, procgrid.New(3, 4), PlanConfig{Scheme: BinaryTree, Seed: 2, Symmetric: symmetric})
		for _, sp := range p.Snodes {
			want := len(sp.Cross) + len(sp.ColBcasts) + len(sp.RowReduces) + len(sp.SymmSends) +
				len(sp.CrossU) + len(sp.RowBcasts) + len(sp.ColReduces)
			for _, op := range []*CollOp{sp.DiagBcast, sp.DiagReduce, sp.DiagBcastRow} {
				if op != nil {
					want++
				}
			}
			seen, blocks := map[uint64]int{}, map[uint64]int{}
			visit := func(kind OpKind, k, blk int, blks []int) {
				seen[OpKey(kind, k, blk)]++
				for _, b := range blks {
					blocks[OpKey(kind, k, b)]++
				}
			}
			sp.EachOp(func(op *CollOp) { visit(op.Kind, op.K, op.Blk, op.Blks) }, func(op *PointOp) { visit(op.Kind, op.K, op.Blk, op.Blks) })
			for _, n := range blocks {
				if n != 1 {
					t.Fatalf("symmetric=%v K=%d: a block visited %d times in one kind", symmetric, sp.K, n)
				}
			}
			wantBlocks := 0
			if len(sp.C) > 0 {
				wantBlocks = 2 + len(sp.C)*4 // the diag kinds, then Cross, ColBcast, RowReduce, SymmSend
				if !symmetric {
					wantBlocks = 3 + len(sp.C)*6
				}
			}
			if len(blocks) != wantBlocks {
				t.Fatalf("symmetric=%v K=%d: groups carry %d (kind, block) pairs, want %d", symmetric, sp.K, len(blocks), wantBlocks)
			}
			if len(seen) != want {
				t.Fatalf("symmetric=%v K=%d: walker visited %d distinct ops, supernode holds %d", symmetric, sp.K, len(seen), want)
			}
			for key, n := range seen {
				if n != 1 {
					t.Fatalf("symmetric=%v K=%d: op %#x visited %d times", symmetric, sp.K, key, n)
				}
			}
		}
	}
}

// TestUpperSideMirrorsLower: the upper side is the lower side's program with
// rows and columns exchanged, so on a square grid under the cyclic map (where
// owner(i,k) and owner(k,i) are transposes of each other) each upper kind
// moves exactly the bytes of its lower counterpart. On a 2×8 grid the
// exchange changes the collectives' participant sets and the totals part.
func TestUpperSideMirrorsLower(t *testing.T) {
	bp := testPattern(t)
	pairs := [][2]OpKind{{OpRowBcast, OpColBcast}, {OpColReduce, OpRowReduce},
		{OpCrossSendU, OpCrossSend}, {OpDiagBcastRow, OpDiagBcast}}
	mirrored := func(grid *procgrid.Grid) bool {
		p := NewPlanConfig(bp, grid, PlanConfig{Scheme: ShiftedBinaryTree, Seed: 5})
		for _, sp := range p.Snodes { // each side's groups carry every block of C once
			for _, blks := range [][][]int{collBlks(sp.RowBcasts), collBlks(sp.ColReduces), pointBlks(sp.CrossU),
				collBlks(sp.ColBcasts), collBlks(sp.RowReduces), pointBlks(sp.Cross)} {
				if err := coversInOrder(blks, sp.C); err != nil {
					t.Fatalf("K=%d: %v", sp.K, err)
				}
			}
		}
		all := true
		for _, pr := range pairs {
			up, low := expectedBytes(p, pr[0]), expectedBytes(p, pr[1])
			if up == 0 || low == 0 {
				t.Fatalf("%v/%v: no traffic (%d, %d)", pr[0], pr[1], up, low)
			}
			all = all && up == low
		}
		return all
	}
	if !mirrored(procgrid.New(4, 4)) {
		t.Fatal("4x4 cyclic: an upper kind's bytes differ from its lower counterpart's")
	}
	if mirrored(procgrid.New(2, 8)) {
		t.Fatal("2x8: upper and lower totals all equal — the sides are not oriented by the grid")
	}
}

// TestOpKeyUnique: OpKey is injective on (kind, K, block), and on a plan the
// tags of the groups — the key of each group's first block — are unique.
func TestOpKeyUnique(t *testing.T) {
	tags := map[uint64]bool{}
	for _, sp := range NewPlanConfig(testPattern(t), procgrid.New(3, 4), PlanConfig{Scheme: BinaryTree, Seed: 2}).Snodes {
		tag := func(kind OpKind, k, blk int, blks []int) {
			if key := OpKey(kind, k, blk); tags[key] || blks[0] != blk {
				t.Fatalf("%v K=%d: tag block %d repeats or is not its group's first", kind, k, blk)
			} else {
				tags[key] = true
			}
		}
		sp.EachOp(func(op *CollOp) { tag(op.Kind, op.K, op.Blk, op.Blks) }, func(op *PointOp) { tag(op.Kind, op.K, op.Blk, op.Blks) })
	}
	seen := map[uint64]bool{}
	for _, kind := range []OpKind{OpDiagBcast, OpCrossSend, OpColBcast, OpRowReduce, OpDiagReduce, OpSymmSend} {
		for k := 0; k < 50; k++ {
			for blk := 0; blk < 50; blk++ {
				key := OpKey(kind, k, blk)
				if seen[key] {
					t.Fatalf("duplicate op key for %v k=%d blk=%d", kind, k, blk)
				}
				seen[key] = true
			}
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	for _, k := range []OpKind{OpDiagBcast, OpCrossSend, OpColBcast, OpRowReduce, OpDiagReduce, OpSymmSend} {
		if k.String() == "" {
			t.Fatal("empty op kind name")
		}
	}
}

func collBlks(ops []CollOp) [][]int {
	out := make([][]int, len(ops))
	for g := range ops {
		out[g] = ops[g].Blks
	}
	return out
}

func pointBlks(ops []PointOp) [][]int {
	out := make([][]int, len(ops))
	for g := range ops {
		out[g] = ops[g].Blks
	}
	return out
}

// coversInOrder checks that groups partition c, each in C order and the
// groups in the order of their first blocks.
func coversInOrder(groups [][]int, c []int) error {
	at := map[int]int{}
	for x, i := range c {
		at[i] = x
	}
	seen, last := map[int]bool{}, -1
	for _, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("an empty group")
		}
		if x, ok := at[g[0]]; !ok || x < last {
			return fmt.Errorf("group %v out of C order", g)
		} else {
			last = x
		}
		for y, b := range g {
			if _, ok := at[b]; !ok || seen[b] || y > 0 && at[b] < at[g[y-1]] {
				return fmt.Errorf("group %v: block %d outside C, repeated or out of order", g, b)
			}
			seen[b] = true
		}
	}
	if len(seen) != len(c) {
		return fmt.Errorf("groups cover %d of %d blocks", len(seen), len(c))
	}
	return nil
}
