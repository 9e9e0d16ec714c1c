package core

import (
	"strconv"
	"strings"
	"testing"

	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

// TestBalancerNamesAndParse pins the flag/request contract: every constant
// has a distinct String and slug, the slug round-trips through
// ParseBalancer (case-insensitively), and an unknown slug — including the
// retired nnz and subtree — is rejected with a message listing every valid
// one, the same contract ParseScheme keeps.
func TestBalancerNamesAndParse(t *testing.T) {
	seenString := map[string]bool{}
	seenSlug := map[string]bool{}
	for _, b := range AllBalancers() {
		if s := b.String(); s == "" || seenString[s] {
			t.Fatalf("%d: String %q empty or duplicated", int(b), s)
		} else {
			seenString[s] = true
		}
		slug := b.Slug()
		if slug == "" || slug != strings.ToLower(slug) || seenSlug[slug] {
			t.Fatalf("%d: slug %q empty, uppercase or duplicated", int(b), slug)
		}
		seenSlug[slug] = true
		got, err := ParseBalancer(slug)
		if err != nil || got != b {
			t.Fatalf("ParseBalancer(%q) = %v, %v; want %v", slug, got, err, b)
		}
		if got, err := ParseBalancer(" " + strings.ToUpper(slug) + " "); err != nil || got != b {
			t.Fatalf("ParseBalancer of noisy %q = %v, %v; want %v", slug, got, err, b)
		}
	}
	for _, bad := range []string{"zigzag", "nnz", "subtree"} {
		_, err := ParseBalancer(bad)
		if err == nil {
			t.Fatalf("unknown slug %q accepted", bad)
		}
		if !strings.Contains(err.Error(), "(valid: cyclic|work)") {
			t.Fatalf("error %q does not list the valid slugs cyclic|work", err)
		}
		if !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Fatalf("error %q does not name the rejected input", err)
		}
	}
}

// TestCyclicBalancerMatchesGrid pins the baseline: the cyclic balancer's
// owner map reproduces Grid.OwnerOfBlock exactly, so plans built through
// the map are bit-compatible with the pre-balancer block-cyclic plans.
func TestCyclicBalancerMatchesGrid(t *testing.T) {
	bp := testPattern(t)
	grid := procgrid.New(3, 4)
	m := CyclicBalancer.assign(bp, grid)
	ns := bp.NumSnodes()
	for i := 0; i < ns; i++ {
		for j := 0; j < ns; j++ {
			if got, want := m.OwnerOfBlock(i, j), grid.OwnerOfBlock(i, j); got != want {
				t.Fatalf("block (%d,%d): cyclic map owner %d, grid owner %d", i, j, got, want)
			}
		}
	}
}

// randomPattern builds the block pattern of one random symmetric matrix.
func randomPattern(n, deg int, seed int64) *etree.BlockPattern {
	g := sparse.RandomSym(n, deg, seed)
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	an := etree.Analyze(g.A.Permute(perm), perm, etree.Options{Relax: 2, MaxWidth: 8})
	return an.BP
}

// TestBalancerMapsValidAndConserving is the owner-map property test: across
// 300 random patterns and a rotation of grid shapes, every balancer must
// produce a total, in-range assignment (Map.Validate), and charging every
// block of the load walk to its mapped owner must conserve the global
// totals — Σ per-rank flops equals the walk's total, and Σ per-rank nnz
// equals 2·NNZScalars − Σₖ wₖ² (every off-diagonal factor block is charged
// once as an L block and once as a U block; diagonals once).
func TestBalancerMapsValidAndConserving(t *testing.T) {
	grids := []*procgrid.Grid{
		procgrid.New(2, 2), procgrid.New(3, 4), procgrid.New(4, 4),
		procgrid.New(1, 6), procgrid.New(5, 3),
	}
	for trial := 0; trial < 300; trial++ {
		n := 40 + 7*(trial%13)
		deg := 3 + trial%4
		bp := randomPattern(n, deg, int64(1000+trial))
		grid := grids[trial%len(grids)]

		var wantFlops, wantNNZ int64
		forEachBlockLoad(bp, func(i, j int, flops, nnz int64) {
			wantFlops += flops
			wantNNZ += nnz
		})
		var diagSq int64
		for k := 0; k < bp.NumSnodes(); k++ {
			w := int64(bp.Part.Width(k))
			diagSq += w * w
		}
		if wantNNZ != 2*bp.NNZScalars()-diagSq {
			t.Fatalf("trial %d: walk nnz %d != 2·NNZScalars−Σw² = %d",
				trial, wantNNZ, 2*bp.NNZScalars()-diagSq)
		}

		for _, b := range AllBalancers() {
			m := b.assign(bp, grid)
			if err := m.Validate(); err != nil {
				t.Fatalf("trial %d %v on %v: %v", trial, b, grid, err)
			}
			if m.NumSnodes() != bp.NumSnodes() {
				t.Fatalf("trial %d %v: map covers %d supernodes, want %d",
					trial, b, m.NumSnodes(), bp.NumSnodes())
			}
			var gotFlops, gotNNZ int64
			perRank := make([]int64, grid.Size())
			forEachBlockLoad(bp, func(i, j int, flops, nnz int64) {
				r := m.OwnerOfBlock(i, j)
				perRank[r] += flops
				gotFlops += flops
				gotNNZ += nnz
			})
			if gotFlops != wantFlops || gotNNZ != wantNNZ {
				t.Fatalf("trial %d %v: totals %d/%d, want %d/%d",
					trial, b, gotFlops, gotNNZ, wantFlops, wantNNZ)
			}
		}
	}
}

// TestBalancerRankLoadsConserve checks the plan-level tallies (the numbers
// the obs load section reports) against the same global totals, for every
// balancer on one fixed pattern.
func TestBalancerRankLoadsConserve(t *testing.T) {
	bp := testPattern(t)
	grid := procgrid.New(3, 4)
	var wantFlops, wantNNZ int64
	forEachBlockLoad(bp, func(i, j int, flops, nnz int64) {
		wantFlops += flops
		wantNNZ += nnz
	})
	for _, b := range AllBalancers() {
		plan := NewPlanConfig(bp, grid, PlanConfig{
			Scheme: ShiftedBinaryTree, Seed: 1, Symmetric: true, Balancer: b,
		})
		loads := plan.RankLoads()
		if len(loads) != grid.Size() {
			t.Fatalf("%v: %d rank loads on %v", b, len(loads), grid)
		}
		var sumF, sumN int64
		for _, l := range loads {
			sumF += l.Flops
			sumN += l.NNZ
		}
		if sumF != wantFlops || sumN != wantNNZ {
			t.Fatalf("%v: rank loads sum %d/%d, want %d/%d", b, sumF, sumN, wantFlops, wantNNZ)
		}
		flopImb, nnzImb := LoadImbalance(loads)
		if flopImb < 1 || nnzImb < 1 {
			t.Fatalf("%v: imbalance factors %f/%f below 1", b, flopImb, nnzImb)
		}
	}
}

// TestGreedyAssignDeterministic pins the tie-breaking of the LPT packing:
// equal weights go to bins in index order, and repeated runs agree.
func TestGreedyAssignDeterministic(t *testing.T) {
	w := []float64{5, 5, 5, 5, 1, 1, 1, 1}
	a := greedyAssign(w, 4)
	b := greedyAssign(w, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
	// Four equal heavy items over four bins: one per bin, in order.
	for i := 0; i < 4; i++ {
		if a[i] != i {
			t.Fatalf("heavy item %d in bin %d, want %d (%v)", i, a[i], i, a)
		}
	}
}
