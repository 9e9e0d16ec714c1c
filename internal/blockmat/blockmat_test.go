package blockmat

import (
	"fmt"
	"strings"
	"testing"

	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

// analyses returns the symbolic analyses the tests run on: a random matrix
// with narrow supernodes in natural order, and generated meshes under nested
// dissection with relaxed, capped and unlimited widths.
func analyses() []*etree.Analysis {
	var out []*etree.Analysis
	for _, c := range []struct {
		g   *sparse.Generated
		nd  bool
		opt etree.Options
	}{
		{sparse.RandomSym(20, 3, 2), false, etree.Options{MaxWidth: 4}},
		{sparse.Grid2D(7, 6, 1), true, etree.Options{Relax: 2, MaxWidth: 6}},
		{sparse.DG2D(4, 4, 3, 2), true, etree.Options{Relax: 4, MaxWidth: 8}},
		{sparse.Grid3D(4, 3, 3, 5), true, etree.Options{}},
	} {
		perm := ordering.Identity(c.g.A.N)
		if c.nd {
			perm = ordering.Compute(ordering.NestedDissection, c.g.A, c.g.Geom)
		}
		out = append(out, etree.Analyze(c.g.A.Permute(perm), perm, c.opt))
	}
	return out
}

// EnsureZero returns block (i, j), storing a zero block first when absent.
func (m *BlockMatrix) EnsureZero(i, j int) *dense.Matrix {
	b, ok := m.Get(i, j)
	if !ok {
		b = dense.NewMatrix(m.BP.Part.Width(i), m.BP.Part.Width(j))
		m.Set(i, j, b)
	}
	return b
}

// count returns the number of blocks Range visits.
func count(m *BlockMatrix) int {
	n := 0
	m.Range(func(int, int, *dense.Matrix) { n++ })
	return n
}

// fromCSC scatters the stored entries of a into zero-padded blocks.
func fromCSC(bp *etree.BlockPattern, a *sparse.CSC) *BlockMatrix {
	m, part := New(bp), bp.Part
	for j := 0; j < a.N; j++ {
		kj := part.SnodeOf[j]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			ki := part.SnodeOf[i]
			m.EnsureZero(ki, kj).Set(i-part.Start[ki], j-part.Start[kj], a.Val[p])
		}
	}
	return m
}

func TestAtMatchesCSC(t *testing.T) {
	for _, an := range analyses() {
		m := fromCSC(an.BP, an.A)
		for i := 0; i < an.A.N; i++ {
			for j := 0; j < an.A.N; j++ {
				// Block zero-padding means m.At can return 0 where CSC has
				// no entry; the other direction must match exactly.
				if got, want := m.At(i, j), an.A.At(i, j); got != want && want != 0 {
					t.Fatalf("At(%d,%d) = %g, want %g", i, j, got, want)
				}
			}
		}
	}
}

// TestRangeSlotOrder stores every block and mirror of each pattern, then
// every third: Range visits each stored block once, at the (I, J) it was
// stored under, in ascending slot order.
func TestRangeSlotOrder(t *testing.T) {
	for _, an := range analyses() {
		bp := an.BP
		for _, every := range []int{1, 3} {
			m, stored, n := New(bp), map[*dense.Matrix][2]int{}, 0
			for k, rows := range bp.RowsOf {
				for _, i := range rows {
					for _, ij := range [][2]int{{i, k}, {k, i}}[:min(2, 1+i-k)] {
						if n++; n%every == 0 {
							b := dense.NewMatrix(bp.Part.Width(ij[0]), bp.Part.Width(ij[1]))
							m.Set(ij[0], ij[1], b)
							stored[b] = ij
						}
					}
				}
			}
			last := -1
			m.Range(func(i, j int, b *dense.Matrix) {
				s, ok := bp.Slot(i, j)
				if ij, in := stored[b]; !in || ij != [2]int{i, j} || !ok {
					t.Fatalf("Range visited block (%d,%d), stored as %v", i, j, ij)
				}
				if s <= last {
					t.Fatalf("Range visited slot %d after slot %d", s, last)
				}
				delete(stored, b)
				last = s
			})
			if len(stored) != 0 {
				t.Fatalf("every %d: Range missed %d of the stored blocks", every, len(stored))
			}
		}
	}
}

func TestSetValidatesDims(t *testing.T) {
	bp := analyses()[0].BP
	k := bp.NumSnodes() - 1
	m := New(bp)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong dims")
		}
	}()
	m.Set(k, k, dense.NewMatrix(bp.Part.Width(k)+1, bp.Part.Width(k)))
}

func TestSetOutsidePatternPanics(t *testing.T) {
	for _, an := range analyses() {
		bp := an.BP
		for k := 0; k < bp.NumSnodes(); k++ {
			for i := k + 1; i < bp.NumSnodes(); i++ {
				if _, ok := bp.Slot(i, k); ok {
					continue
				}
				for _, ij := range [][2]int{{i, k}, {k, i}} {
					func() {
						defer func() {
							want := fmt.Sprintf("(%d,%d)", ij[0], ij[1])
							if p, _ := recover().(string); !strings.Contains(p, want) {
								t.Fatalf("Set of structural zero %s: panic %q, want one naming it", want, p)
							}
						}()
						New(bp).Set(ij[0], ij[1], dense.NewMatrix(bp.Part.Width(ij[0]), bp.Part.Width(ij[1])))
					}()
				}
				return // one structural zero suffices
			}
		}
	}
	t.Fatal("no pattern has a structural zero")
}

func TestEnsureZeroIdempotent(t *testing.T) {
	an := analyses()[0]
	k := an.BP.NumSnodes() - 1
	m := New(an.BP)
	b1 := m.EnsureZero(k, k)
	b1.Set(0, 0, 42)
	b2 := m.EnsureZero(k, k)
	if b2.At(0, 0) != 42 {
		t.Fatal("EnsureZero replaced an existing block")
	}
	if n := count(m); n != 1 {
		t.Fatalf("%d blocks stored, want 1", n)
	}
}

func TestMustGetPanicsOnMissing(t *testing.T) {
	m := New(analyses()[0].BP)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.MustGet(0, 0)
}

// TestReleaseEmpties: Release hands every stored block back and leaves a
// matrix that holds none, ready to be filled again.
func TestReleaseEmpties(t *testing.T) {
	for _, an := range analyses() {
		m := fromCSC(an.BP, an.A)
		if count(m) == 0 {
			t.Fatal("nothing stored")
		}
		m.Release()
		if n := count(m); n != 0 {
			t.Fatalf("%d blocks left after Release", n)
		}
		if _, ok := m.Get(0, 0); ok {
			t.Fatal("Get found a released block")
		}
		m.EnsureZero(0, 0)
		if n := count(m); n != 1 {
			t.Fatalf("%d blocks stored after Release and one Set, want 1", n)
		}
	}
}
