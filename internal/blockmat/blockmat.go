// Package blockmat provides the supernodal block-sparse matrix container
// shared by the numeric factorization and the selected-inversion
// implementations: dense blocks indexed by (block-row, block-column) over a
// supernode partition, mirroring the storage sketched in Figure 1(b) of the
// paper.
package blockmat

import (
	"fmt"
	"sort"

	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/sparse"
)

// Key identifies a block by block-row I and block-column J.
type Key struct{ I, J int }

// BlockMatrix stores dense blocks over a supernode partition. Absent blocks
// are structurally zero. Elem is the element type new zero blocks are
// created with (EnsureZero); the zero value keeps the historical real
// behavior.
type BlockMatrix struct {
	Part   *etree.Partition
	Elem   dense.Elem
	blocks map[Key]*dense.Matrix
}

// New returns an empty real block matrix over the partition.
func New(part *etree.Partition) *BlockMatrix {
	return &BlockMatrix{Part: part, blocks: make(map[Key]*dense.Matrix)}
}

// NewElem returns an empty block matrix whose zero blocks carry the given
// element type.
func NewElem(part *etree.Partition, elem dense.Elem) *BlockMatrix {
	return &BlockMatrix{Part: part, Elem: elem, blocks: make(map[Key]*dense.Matrix)}
}

// BlockDims returns the (rows, cols) of block (i, j).
func (m *BlockMatrix) BlockDims(i, j int) (int, int) {
	return m.Part.Width(i), m.Part.Width(j)
}

// Get returns block (i, j) when stored.
func (m *BlockMatrix) Get(i, j int) (*dense.Matrix, bool) {
	b, ok := m.blocks[Key{i, j}]
	return b, ok
}

// MustGet returns block (i, j) and panics when absent — used where the
// symbolic phase guarantees presence, so absence is a bug.
func (m *BlockMatrix) MustGet(i, j int) *dense.Matrix {
	b, ok := m.blocks[Key{i, j}]
	if !ok {
		panic(fmt.Sprintf("blockmat: missing block (%d,%d)", i, j))
	}
	return b
}

// Set stores block (i, j), validating dimensions.
func (m *BlockMatrix) Set(i, j int, b *dense.Matrix) {
	r, c := m.BlockDims(i, j)
	if b.Rows != r || b.Cols != c {
		panic(fmt.Sprintf("blockmat: block (%d,%d) dims %dx%d, want %dx%d", i, j, b.Rows, b.Cols, r, c))
	}
	m.blocks[Key{i, j}] = b
}

// EnsureZero returns block (i, j), allocating a zero block when absent.
func (m *BlockMatrix) EnsureZero(i, j int) *dense.Matrix {
	if b, ok := m.blocks[Key{i, j}]; ok {
		return b
	}
	r, c := m.BlockDims(i, j)
	b := dense.NewMatrixElem(r, c, m.Elem)
	m.blocks[Key{i, j}] = b
	return b
}

// Delete removes block (i, j) if present.
func (m *BlockMatrix) Delete(i, j int) { delete(m.blocks, Key{i, j}) }

// NumBlocks returns the number of stored blocks.
func (m *BlockMatrix) NumBlocks() int { return len(m.blocks) }

// Keys returns the stored block keys sorted by (J, I) — column-major block
// order, convenient for deterministic iteration.
func (m *BlockMatrix) Keys() []Key {
	ks := make([]Key, 0, len(m.blocks))
	for k := range m.blocks {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(a, b int) bool {
		if ks[a].J != ks[b].J {
			return ks[a].J < ks[b].J
		}
		return ks[a].I < ks[b].I
	})
	return ks
}

// Range calls fn for every stored block in unspecified order.
func (m *BlockMatrix) Range(fn func(Key, *dense.Matrix)) {
	for k, b := range m.blocks {
		fn(k, b)
	}
}

// Release returns every stored block to the dense arena and empties the
// matrix; blocks obtained from it must not be used afterwards. Callers that
// extract what they need per inversion (the pole-expansion diagonal
// readout) release each result so the next one reuses the storage.
func (m *BlockMatrix) Release() {
	for k, b := range m.blocks {
		dense.PutMatrix(b)
		delete(m.blocks, k)
	}
}

// Clone returns a deep copy.
func (m *BlockMatrix) Clone() *BlockMatrix {
	c := NewElem(m.Part, m.Elem)
	for k, b := range m.blocks {
		c.blocks[k] = b.Clone()
	}
	return c
}

// FromCSC assembles the stored entries of a into blocks over the partition.
// Every block containing at least one stored entry is created (zero-padded).
func FromCSC(part *etree.Partition, a *sparse.CSC) *BlockMatrix {
	if part.Start[len(part.Start)-1] != a.N {
		panic("blockmat: partition does not match matrix dimension")
	}
	m := New(part)
	for j := 0; j < a.N; j++ {
		kj := part.SnodeOf[j]
		jc := j - part.Start[kj]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			ki := part.SnodeOf[i]
			b := m.EnsureZero(ki, kj)
			b.Set(i-part.Start[ki], jc, a.Val[p])
		}
	}
	return m
}

// ToDense expands the block matrix into a dense matrix (tests and small
// problems only).
func (m *BlockMatrix) ToDense() *dense.Matrix {
	n := m.Part.Start[len(m.Part.Start)-1]
	d := dense.NewMatrix(n, n)
	for k, b := range m.blocks {
		r0, c0 := m.Part.Start[k.I], m.Part.Start[k.J]
		for c := 0; c < b.Cols; c++ {
			for r := 0; r < b.Rows; r++ {
				d.Set(r0+r, c0+c, b.At(r, c))
			}
		}
	}
	return d
}

// At returns scalar entry (i, j), zero when its block is absent.
func (m *BlockMatrix) At(i, j int) float64 {
	ki, kj := m.Part.SnodeOf[i], m.Part.SnodeOf[j]
	b, ok := m.Get(ki, kj)
	if !ok {
		return 0
	}
	return b.At(i-m.Part.Start[ki], j-m.Part.Start[kj])
}

// ZAt returns complex scalar entry (i, j) of a complex-element block
// matrix, zero when its block is absent.
func (m *BlockMatrix) ZAt(i, j int) complex128 {
	ki, kj := m.Part.SnodeOf[i], m.Part.SnodeOf[j]
	b, ok := m.Get(ki, kj)
	if !ok {
		return 0
	}
	return b.ZAt(i-m.Part.Start[ki], j-m.Part.Start[kj])
}

// Bytes returns the total payload size of all stored blocks in bytes
// (float64 entries), used for communication-volume accounting.
func (m *BlockMatrix) Bytes() int64 {
	var t int64
	for _, b := range m.blocks {
		t += int64(len(b.Data)) * 8
	}
	return t
}
