package core

import (
	"fmt"
	"slices"
	"testing"

	"pselinv/internal/procgrid"
)

// FuzzPlanGroups holds the grouped plan to the per-block oracle (perBlockPlan)
// over random patterns, grids up to 8×8, every scheme and balancer, both plan
// variants, seeds and node sizes: every block of C(K) is in exactly one group
// per kind, in C order; a group's tree is the oracle's tree of every block in
// it, and its bytes their sum; a reduction carries one block; no two
// broadcasts of one (kind, K) share both a tree and the sender of their
// cross-sends; a cross-send carries its broadcast's blocks and a mirror send
// one block; every per-rank, per-kind byte vector is the oracle's; and the
// plan holds one tree per shape, shared by every op whose tree is equal.
func FuzzPlanGroups(f *testing.F) {
	// Seeds name their scheme and balancer by slug (slugIndex), so a reordered
	// AllSchemes or AllBalancers moves none of them.
	scheme := func(slug string) uint8 { return slugIndex(f, AllSchemes(), slug) }
	bal := func(slug string) uint8 { return slugIndex(f, AllBalancers(), slug) }
	f.Add(uint8(60), uint8(3), int64(1), uint8(4), uint8(4), scheme("shifted"), bal("cyclic"), true, uint64(1), uint8(24))
	f.Add(uint8(90), uint8(4), int64(2), uint8(2), uint8(8), scheme("binary"), bal("work"), false, uint64(7), uint8(4))
	f.Add(uint8(40), uint8(5), int64(3), uint8(3), uint8(5), scheme("binary"), bal("cyclic"), false, uint64(3), uint8(3))
	f.Add(uint8(120), uint8(3), int64(4), uint8(8), uint8(8), scheme("flat"), bal("work"), true, uint64(2), uint8(8))
	f.Add(uint8(70), uint8(6), int64(5), uint8(1), uint8(6), scheme("flat"), bal("cyclic"), true, uint64(9), uint8(2))
	f.Add(uint8(50), uint8(3), int64(6), uint8(6), uint8(2), scheme("toposhifted"), bal("work"), false, uint64(5), uint8(1))
	f.Fuzz(func(t *testing.T, n, deg uint8, patSeed int64, pr, pc, scheme, balancer uint8, symmetric bool, seed uint64, cpn uint8) {
		bp := randomPattern(20+int(n)%120, 2+int(deg)%5, patSeed)
		grid := procgrid.New(1+int(pr)%8, 1+int(pc)%8)
		all, bals := AllSchemes(), AllBalancers()
		cfg := PlanConfig{Scheme: all[int(scheme)%len(all)], Balancer: bals[int(balancer)%len(bals)], Symmetric: symmetric,
			Seed: seed, Topo: Topology{CoresPerNode: 1 + int(cpn)%24}}
		got, want := NewPlanConfig(bp, grid, cfg), perBlockPlan(bp, grid, cfg)
		if _, _, err := checkInterned(got); err != nil {
			t.Fatalf("%v: %v", cfg.Scheme, err)
		}
		for k, sp := range got.Snodes {
			if err := checkGroups(sp, want.Snodes[k], got.Owners.OwnerOfBlock); err != nil {
				t.Fatalf("%v K=%d: %v", cfg.Scheme, k, err)
			}
		}
		for kind := range OpKind(len(opKindNames)) {
			if !slices.Equal(got.PerRankSent(kind), want.PerRankSent(kind)) || !slices.Equal(got.PerRankRecv(kind), want.PerRankRecv(kind)) {
				t.Fatalf("%v: per-rank %v bytes differ from the per-block plan's", cfg.Scheme, kind)
			}
		}
		if !slices.Equal(got.PerRankTotalSent(), want.PerRankTotalSent()) {
			t.Fatalf("%v: per-rank total sent differs from the per-block plan's", cfg.Scheme)
		}
	})
}

// slugIndex is the index of the scheme or balancer named slug in all, as a
// fuzz input encodes it; an unknown slug fails tb.
func slugIndex[T interface{ Slug() string }](tb testing.TB, all []T, slug string) uint8 {
	tb.Helper()
	for i, x := range all {
		if x.Slug() == slug {
			return uint8(i)
		}
	}
	tb.Fatalf("no scheme or balancer %q", slug)
	return 0
}

// checkGroups compares one supernode's grouped ops with the oracle's per-block
// ones (owner is the plan's owner map).
func checkGroups(sp, oracle *SupernodePlan, owner func(i, j int) int) error {
	x := map[int]int{} // a block's position in C: its oracle op's index
	for i, b := range sp.C {
		x[b] = i
	}
	for _, d := range [][2]*CollOp{{sp.DiagBcast, oracle.DiagBcast}, {sp.DiagBcastRow, oracle.DiagBcastRow}, {sp.DiagReduce, oracle.DiagReduce}} {
		if (d[0] == nil) != (d[1] == nil) || d[0] != nil && (!d[0].Tree.equal(d[1].Tree) || d[0].Bytes != d[1].Bytes || !slices.Equal(d[0].Blks, []int{sp.K})) {
			return fmt.Errorf("a diag op differs from the oracle's")
		}
	}
	side := func(s Side) func(i int) int { return func(i int) int { return owner(s.Block(i, sp.K)) } }
	for _, c := range []struct {
		got, want []CollOp
		src       func(i int) int // a broadcast's cross-send sender, nil for a reduction
	}{
		{sp.ColBcasts, oracle.ColBcasts, side(Lower)}, {sp.RowReduces, oracle.RowReduces, nil},
		{sp.RowBcasts, oracle.RowBcasts, side(Upper)}, {sp.ColReduces, oracle.ColReduces, nil},
	} {
		if err := coversInOrder(collBlks(c.got), sp.C); len(sp.C) > 0 && len(c.want) > 0 && err != nil {
			return err
		}
		for g, op := range c.got {
			var bytes int64
			for _, b := range op.Blks {
				if w := &c.want[x[b]]; !op.Tree.equal(w.Tree) || op.Kind != w.Kind {
					return fmt.Errorf("%v group %v: block %d's tree is not the group's", op.Kind, op.Blks, b)
				} else {
					bytes += w.Bytes
				}
			}
			if op.Bytes != bytes || op.Blk != op.Blks[0] {
				return fmt.Errorf("%v group %v: %d bytes, tag block %d", op.Kind, op.Blks, op.Bytes, op.Blk)
			}
			if c.src == nil && len(op.Blks) != 1 {
				return fmt.Errorf("%v group %v: a reduction of several blocks", op.Kind, op.Blks)
			}
			for _, other := range c.got[:g] {
				if c.src != nil && other.Tree.equal(op.Tree) && c.src(other.Blk) == c.src(op.Blk) {
					return fmt.Errorf("%v groups %v and %v share a tree and a sender", op.Kind, other.Blks, op.Blks)
				}
			}
		}
	}
	for _, c := range []struct {
		got, want []PointOp
		as        [][]int // the groups the ops carry: their broadcasts', a mirror's own block
	}{{sp.Cross, oracle.Cross, collBlks(sp.ColBcasts)}, {sp.CrossU, oracle.CrossU, collBlks(sp.RowBcasts)},
		{sp.SymmSends, oracle.SymmSends, pointBlks(oracle.SymmSends)}} {
		if len(c.want) > 0 && !slices.EqualFunc(pointBlks(c.got), c.as, slices.Equal) {
			return fmt.Errorf("%v groups %v, want %v", c.want[0].Kind, pointBlks(c.got), c.as)
		}
		for _, po := range c.got {
			var bytes int64
			for _, b := range po.Blks {
				if w := c.want[x[b]]; w.Src != po.Src || w.Dst != po.Dst || w.Kind != po.Kind {
					return fmt.Errorf("%v group %v: block %d goes %d→%d", po.Kind, po.Blks, b, w.Src, w.Dst)
				} else {
					bytes += w.Bytes
				}
			}
			if po.Bytes != bytes || po.Blk != po.Blks[0] {
				return fmt.Errorf("%v group %v: %d bytes, tag block %d", po.Kind, po.Blks, po.Bytes, po.Blk)
			}
		}
	}
	return nil
}
