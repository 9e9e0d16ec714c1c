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
		if len(sp.ColBcasts) != len(sp.C) || len(sp.RowReduces) != len(sp.C) ||
			len(sp.Cross) != len(sp.C) || len(sp.SymmSends) != len(sp.C) {
			t.Fatalf("supernode %d op counts inconsistent with |C|=%d", k, len(sp.C))
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
		for x, i := range sp.C {
			cb := sp.ColBcasts[x]
			if cb.Blk != i || cb.Tree.Root != grid.OwnerOfBlock(k, i) {
				t.Fatalf("K=%d I=%d: ColBcast root/blk wrong", k, i)
			}
			for _, r := range cb.Tree.Participants() {
				_, col := grid.Coords(r)
				if col != grid.ProcColOfBlock(i) {
					t.Fatalf("K=%d I=%d: ColBcast participant %d outside column %d",
						k, i, r, grid.ProcColOfBlock(i))
				}
			}
			rr := sp.RowReduces[x]
			j := sp.C[x]
			if rr.Blk != j || rr.Tree.Root != grid.OwnerOfBlock(j, k) {
				t.Fatalf("K=%d J=%d: RowReduce root/blk wrong", k, j)
			}
			for _, r := range rr.Tree.Participants() {
				row, _ := grid.Coords(r)
				if row != grid.ProcRowOfBlock(j) {
					t.Fatalf("K=%d J=%d: RowReduce participant %d outside row group", k, j, r)
				}
			}
			if sp.Cross[x].Src != grid.OwnerOfBlock(i, k) || sp.Cross[x].Dst != grid.OwnerOfBlock(k, i) {
				t.Fatalf("K=%d I=%d: cross send endpoints wrong", k, i)
			}
			if sp.SymmSends[x].Src != grid.OwnerOfBlock(j, k) || sp.SymmSends[x].Dst != grid.OwnerOfBlock(k, j) {
				t.Fatalf("K=%d J=%d: symm send endpoints wrong", k, j)
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
// field the walker forgot shows up here.
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
			seen := map[uint64]int{}
			sp.EachOp(func(op *CollOp) { seen[OpKey(op.Kind, op.K, op.Blk)]++ }, func(op *PointOp) { seen[OpKey(op.Kind, op.K, op.Blk)]++ })
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

func TestOpKeyUnique(t *testing.T) {
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
