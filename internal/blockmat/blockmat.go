// Package blockmat provides the supernodal block-sparse matrix container of
// the selected-inversion implementations — their normalized factors and the
// selected inverse they return: dense blocks indexed by (block-row,
// block-column) over a supernode partition, mirroring the storage sketched in
// Figure 1(b) of the paper. (The LU itself is one slab: internal/factor.)
package blockmat

import (
	"fmt"
	"sort"

	"pselinv/internal/dense"
	"pselinv/internal/etree"
)

// Key identifies a block by block-row I and block-column J.
type Key struct{ I, J int }

// BlockMatrix stores dense blocks, of either element type, over a supernode
// partition. Absent blocks are structurally zero.
type BlockMatrix struct {
	Part   *etree.Partition
	blocks map[Key]*dense.Matrix
}

// New returns an empty block matrix over the partition, sized for n blocks.
func New(part *etree.Partition, n int) *BlockMatrix {
	return &BlockMatrix{Part: part, blocks: make(map[Key]*dense.Matrix, n)}
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
	if r, c := m.Part.Width(i), m.Part.Width(j); b.Rows != r || b.Cols != c {
		panic(fmt.Sprintf("blockmat: block (%d,%d) dims %dx%d, want %dx%d", i, j, b.Rows, b.Cols, r, c))
	}
	m.blocks[Key{i, j}] = b
}

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
