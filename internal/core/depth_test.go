package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pselinv/internal/procgrid"
)

// Property: shifted binary trees keep logarithmic depth — the shift must
// not degrade the O(log p) critical path (§III claims both benefits
// simultaneously).
func TestQuickShiftedTreeLogDepth(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(300)
		ranks := make([]int, n)
		for i := range ranks {
			ranks[i] = i * 3
		}
		root := ranks[r.Intn(n)]
		tr := NewTree(ShiftedBinaryTree, root, ranks, r.Uint64(), r.Uint64())
		bound := int(math.Ceil(math.Log2(float64(n)))) + 1
		return tr.Depth() <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the flat tree has depth exactly 1 for any multi-rank set.
func TestQuickFlatTreeDepthOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(100)
		ranks := r.Perm(1000)[:n]
		tr := NewTree(FlatTree, ranks[0], ranks, r.Uint64(), r.Uint64())
		return tr.Depth() == 1 && len(tr.Children(tr.Root)) == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-rank sent volumes sum to the plan's expected totals for
// every kind, on both plan variants.
func TestQuickPerRankVolumesSumToTotals(t *testing.T) {
	bp := testPattern(t)
	f := func(seed uint64, symmetric bool) bool {
		grid := gridForSeed(seed)
		plan := NewPlanConfig(bp, grid, PlanConfig{Scheme: ShiftedBinaryTree, Seed: seed, Symmetric: symmetric})
		for _, kind := range []OpKind{OpDiagBcast, OpCrossSend, OpColBcast, OpRowReduce,
			OpDiagReduce, OpSymmSend, OpDiagBcastRow, OpCrossSendU, OpRowBcast, OpColReduce} {
			var sent, recv int64
			for _, v := range plan.PerRankSent(kind) {
				sent += v
			}
			for _, v := range plan.PerRankRecv(kind) {
				recv += v
			}
			if sent != expectedBytes(plan, kind) || recv != expectedBytes(plan, kind) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func gridForSeed(seed uint64) *procgrid.Grid {
	dims := [][2]int{{2, 3}, {4, 4}, {3, 5}, {1, 6}, {7, 2}}
	d := dims[seed%uint64(len(dims))]
	return procgrid.New(d[0], d[1])
}
