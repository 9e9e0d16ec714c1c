package etree

import (
	"math/rand"
	"sort"
	"testing"

	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

// HasBlock reports whether block (i, k), i >= k, is in the pattern, by a
// search of RowsOf[k] of its own: the tests' oracle for Slot's boolean.
func (bp *BlockPattern) HasBlock(i, k int) bool {
	rows := bp.RowsOf[k]
	p := sort.SearchInts(rows, i)
	return p < len(rows) && rows[p] == i
}

// checkLayout asserts the factor layout's contract on one pattern: the ids,
// the slots of the blocks (I, K), I >= K, are the dense range [0,
// NNZBlocks()) in (K, RowsOf[K]) order, Slot hits exactly the closed pattern
// (agreeing with HasBlock on every block pair) and puts each mirror (K, I) at
// NNZBlocks() + id — one to one into [0, 2·NNZBlocks()), inverted by Block —
// and the blocks tile the slab in two halves, each without a gap: walking the
// supernodes in order, every diagonal and L block starts where the previous
// one ended, from 0 to the lower size — NNZScalars(), all a symmetric
// factorization stores — and every U block likewise from there to the full
// size, so the halves are disjoint.
func checkLayout(t *testing.T, name string, bp *BlockPattern) {
	t.Helper()
	ns, part := bp.NumSnodes(), bp.Part
	nextID, at, uat := 0, 0, bp.FactorSize(false)
	for k := 0; k < ns; k++ {
		for i := k; i < ns; i++ {
			id, ok := bp.Slot(i, k)
			m, mok := bp.Slot(k, i)
			if ok != bp.HasBlock(i, k) || mok != ok {
				t.Fatalf("%s: Slot(%d,%d) ok=%v, its mirror's %v, HasBlock=%v", name, i, k, ok, mok, bp.HasBlock(i, k))
			}
			if !ok {
				continue
			}
			if id != nextID {
				t.Fatalf("%s: block (%d,%d) has id %d, want the next id %d", name, i, k, id, nextID)
			}
			if i > k && m != bp.NNZBlocks()+id || i == k && m != id {
				t.Fatalf("%s: block (%d,%d) at slot %d, its mirror at %d", name, i, k, id, m)
			}
			if bi, bj := bp.Block(id); bi != i || bj != k {
				t.Fatalf("%s: Block(%d) = (%d,%d), want (%d,%d)", name, id, bi, bj, i, k)
			}
			if bi, bj := bp.Block(m); bi != k || bj != i {
				t.Fatalf("%s: Block(%d) = (%d,%d), want (%d,%d)", name, m, bi, bj, k, i)
			}
			nextID++
		}
		w := part.Width(k)
		for p, i := range bp.RowsOf[k] {
			if lower := bp.FactorOffset(k, p, false); lower != at {
				t.Fatalf("%s: block (%d,%d) at %d, previous block ended at %d", name, i, k, lower, at)
			}
			at += w * part.Width(i)
			if p == 0 {
				continue
			}
			if upper := bp.FactorOffset(k, p, true); upper != uat {
				t.Fatalf("%s: block (%d,%d) at %d, previous block ended at %d", name, k, i, upper, uat)
			}
			uat += w * part.Width(i)
		}
	}
	if nextID != bp.NNZBlocks() {
		t.Fatalf("%s: %d ids handed out, NNZBlocks %d", name, nextID, bp.NNZBlocks())
	}
	if at != bp.FactorSize(false) || at != int(bp.NNZScalars()) {
		t.Fatalf("%s: lower blocks end at %d, lower size %d, NNZScalars %d", name, at, bp.FactorSize(false), bp.NNZScalars())
	}
	if uat != bp.FactorSize(true) {
		t.Fatalf("%s: upper blocks end at %d, FactorSize %d", name, uat, bp.FactorSize(true))
	}
	if want := 2*int(bp.NNZScalars()) - sumSquares(part); uat != want {
		t.Fatalf("%s: Σ block sizes %d, want 2·NNZScalars − Σw² = %d", name, uat, want)
	}
}

func sumSquares(part *Partition) int {
	s := 0
	for k := 0; k < part.NumSnodes(); k++ {
		s += part.Width(k) * part.Width(k)
	}
	return s
}

func TestFactorLayoutGenerators(t *testing.T) {
	for _, g := range []*sparse.Generated{
		sparse.Banded(12, 2, 1),
		sparse.Grid2D(9, 7, 2),
		sparse.Grid3D(4, 4, 3, 7),
		sparse.DG2D(6, 6, 3, 4),
		sparse.RandomSym(80, 4, 3),
		sparse.Asymmetrize(sparse.Grid2D(6, 6, 5), 9, 0.5),
	} {
		for _, opt := range []Options{{}, {Relax: 4, MaxWidth: 48}, {MaxWidth: 1}} {
			perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
			checkLayout(t, g.Name, Analyze(g.A.Permute(perm), perm, opt).BP)
		}
	}
}

func TestFactorLayoutRandomPatterns(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(60)
		g := sparse.RandomSym(n, 1+r.Intn(5), int64(trial))
		opt := Options{Relax: r.Intn(5), MaxWidth: r.Intn(9)}
		checkLayout(t, g.Name, Analyze(g.A, ordering.Identity(n), opt).BP)
	}
}

func TestBlockIDAbsent(t *testing.T) {
	// Block-diagonal matrix: no off-diagonal block is in the pattern.
	a := sparse.FromTriplets(4, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}, {Row: 2, Col: 2, Val: 1}, {Row: 3, Col: 3, Val: 1},
	})
	bp := NewBlockPattern(a, FromStarts([]int{0, 1, 2, 3, 4}, 4))
	for k := 0; k < 4; k++ {
		if id, ok := bp.Slot(k, k); !ok || id != k {
			t.Fatalf("Slot(%d,%d) = %d, %v", k, k, id, ok)
		}
		for i := k + 1; i < 4; i++ {
			if _, ok := bp.Slot(i, k); ok {
				t.Fatalf("Slot(%d,%d) reports a block of a block-diagonal pattern", i, k)
			}
		}
	}
	if bp.FactorSize(false) != 4 || bp.FactorSize(true) != 4 {
		t.Fatalf("FactorSize = %d lower, %d full, want 4 and 4", bp.FactorSize(false), bp.FactorSize(true))
	}
}
