package blockmat

import (
	"testing"

	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

func testPartition(n int, starts []int) *etree.Partition {
	return etree.FromStarts(starts, n)
}

// fromCSC scatters the stored entries of a into zero-padded blocks.
func fromCSC(part *etree.Partition, a *sparse.CSC) *BlockMatrix {
	m := New(part, 0)
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
	g := sparse.RandomSym(20, 3, 2)
	an := etree.Analyze(g.A, ordering.Identity(g.A.N), etree.Options{MaxWidth: 4})
	m := fromCSC(an.BP.Part, an.A)
	for i := 0; i < an.A.N; i++ {
		for j := 0; j < an.A.N; j++ {
			if m.At(i, j) != an.A.At(i, j) {
				// Block zero-padding means m.At can return 0 where CSC has
				// no entry; the other direction must match exactly.
				if an.A.At(i, j) != 0 {
					t.Fatalf("At(%d,%d) = %g, want %g", i, j, m.At(i, j), an.A.At(i, j))
				}
			}
		}
	}
}

func TestSetValidatesDims(t *testing.T) {
	p := testPartition(5, []int{0, 2, 5})
	m := New(p, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong dims")
		}
	}()
	m.Set(0, 1, dense.NewMatrix(3, 3)) // should be 2x3
}

func TestEnsureZeroIdempotent(t *testing.T) {
	p := testPartition(5, []int{0, 2, 5})
	m := New(p, 0)
	b1 := m.EnsureZero(1, 0)
	b1.Set(0, 0, 42)
	b2 := m.EnsureZero(1, 0)
	if b2.At(0, 0) != 42 {
		t.Fatal("EnsureZero replaced an existing block")
	}
	if m.NumBlocks() != 1 {
		t.Fatalf("NumBlocks = %d", m.NumBlocks())
	}
}

func TestMustGetPanicsOnMissing(t *testing.T) {
	p := testPartition(4, []int{0, 4})
	m := New(p, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.MustGet(0, 0)
}

func TestKeysSorted(t *testing.T) {
	p := testPartition(6, []int{0, 2, 4, 6})
	m := New(p, 0)
	m.EnsureZero(2, 1)
	m.EnsureZero(0, 0)
	m.EnsureZero(1, 1)
	m.EnsureZero(2, 0)
	ks := m.Keys()
	want := []Key{{0, 0}, {2, 0}, {1, 1}, {2, 1}}
	if len(ks) != len(want) {
		t.Fatalf("got %v", ks)
	}
	for i := range ks {
		if ks[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", ks, want)
		}
	}
}

// EnsureZero returns block (i, j), allocating a real zero block when absent.
func (m *BlockMatrix) EnsureZero(i, j int) *dense.Matrix {
	b, ok := m.blocks[Key{i, j}]
	if !ok {
		b = dense.NewMatrix(m.Part.Width(i), m.Part.Width(j))
		m.blocks[Key{i, j}] = b
	}
	return b
}
