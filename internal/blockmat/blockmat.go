// Package blockmat provides the supernodal block-sparse matrix container of
// the selected-inversion implementations — their normalized factors and the
// selected inverse they return: dense blocks on the slots of a block pattern,
// mirroring the storage sketched in Figure 1(b) of the paper. A block (I, J)
// sits at etree.BlockPattern.Slot(I, J), the slot its factor block has (the
// LU itself is one slab: internal/factor), so a matrix is one slice of
// 2·NNZBlocks() blocks and holds nothing outside the pattern.
package blockmat

import (
	"fmt"

	"pselinv/internal/dense"
	"pselinv/internal/etree"
)

// BlockMatrix stores dense blocks, of either element type, on the slots of a
// block pattern. Absent blocks are structurally zero.
type BlockMatrix struct {
	BP     *etree.BlockPattern
	blocks []*dense.Matrix // by slot, nil where absent
}

// New returns an empty block matrix on the pattern.
func New(bp *etree.BlockPattern) *BlockMatrix {
	return &BlockMatrix{BP: bp, blocks: make([]*dense.Matrix, 2*bp.NNZBlocks())}
}

// Get returns block (i, j) when stored.
func (m *BlockMatrix) Get(i, j int) (*dense.Matrix, bool) {
	s, ok := m.BP.Slot(i, j)
	if !ok || m.blocks[s] == nil {
		return nil, false
	}
	return m.blocks[s], true
}

// MustGet returns block (i, j) and panics when absent — used where the
// symbolic phase guarantees presence, so absence is a bug.
func (m *BlockMatrix) MustGet(i, j int) *dense.Matrix {
	b, ok := m.Get(i, j)
	if !ok {
		panic(fmt.Sprintf("blockmat: missing block (%d,%d)", i, j))
	}
	return b
}

// Set stores block (i, j), validating that the pattern has it and its
// dimensions.
func (m *BlockMatrix) Set(i, j int, b *dense.Matrix) {
	s, ok := m.BP.Slot(i, j)
	if !ok {
		panic(fmt.Sprintf("blockmat: block (%d,%d) outside the pattern", i, j))
	}
	if r, c := m.BP.Part.Width(i), m.BP.Part.Width(j); b.Rows != r || b.Cols != c {
		panic(fmt.Sprintf("blockmat: block (%d,%d) dims %dx%d, want %dx%d", i, j, b.Rows, b.Cols, r, c))
	}
	m.blocks[s] = b
}

// Range calls fn for every stored block in slot order: the blocks on and
// below the diagonal column by column, then the upper mirrors likewise.
func (m *BlockMatrix) Range(fn func(i, j int, b *dense.Matrix)) {
	s := 0
	for _, upper := range [2]bool{false, true} {
		for k, rows := range m.BP.RowsOf {
			for _, i := range rows {
				if b := m.blocks[s]; b != nil && upper {
					fn(k, i, b)
				} else if b != nil {
					fn(i, k, b)
				}
				s++
			}
		}
	}
}

// Release returns every stored block to the dense arena and empties the
// matrix; blocks obtained from it must not be used afterwards. Callers that
// extract what they need per inversion (the pole-expansion diagonal
// readout) release each result so the next one reuses the storage.
func (m *BlockMatrix) Release() {
	for _, b := range m.blocks {
		dense.PutMatrix(b) // a no-op on an absent block
	}
	clear(m.blocks)
}

// At returns scalar entry (i, j), zero when its block is absent.
func (m *BlockMatrix) At(i, j int) float64 {
	ki, kj := m.BP.Part.SnodeOf[i], m.BP.Part.SnodeOf[j]
	b, ok := m.Get(ki, kj)
	if !ok {
		return 0
	}
	return b.At(i-m.BP.Part.Start[ki], j-m.BP.Part.Start[kj])
}

// ZAt returns complex scalar entry (i, j) of a complex-element block
// matrix, zero when its block is absent.
func (m *BlockMatrix) ZAt(i, j int) complex128 {
	ki, kj := m.BP.Part.SnodeOf[i], m.BP.Part.SnodeOf[j]
	b, ok := m.Get(ki, kj)
	if !ok {
		return 0
	}
	return b.ZAt(i-m.BP.Part.Start[ki], j-m.BP.Part.Start[kj])
}
