package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// PatternFingerprint returns a stable hex digest of the matrix's sparsity
// structure — dimension, column pointers and row indices, but not the
// numeric values. Two matrices share a fingerprint exactly when every
// structural decision of the pipeline (ordering, supernode partition,
// block pattern, communication plan) is identical for them, which is what
// makes the digest usable as a symbolic-plan cache key: the PEXSI workload
// inverts the same pattern once per pole per SCF iteration with only the
// values changing.
func (a *CSC) PatternFingerprint() string {
	h := sha256.New()
	// The digest is of the little-endian uint64 stream N, ColPtr...,
	// RowIdx...; the buffer only batches the writes into the hash.
	buf := make([]byte, 0, 4096)
	put := func(vs ...int) {
		for _, v := range vs {
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	put(a.N)
	// Column pointers are monotone, so hashing them fixes the per-column
	// nnz split; the row indices then pin the full pattern.
	put(a.ColPtr...)
	put(a.RowIdx...)
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// ShiftDiagonal returns A + σI — the pole-expansion transformation — as a copy
// of the values on a's ColPtr and RowIdx, which it shares (no pattern is
// written after construction), so the fingerprint is the original's. Every
// diagonal entry must be structurally present (all generators in this
// package guarantee that); a structurally missing diagonal is an error
// because silently changing the pattern would poison pattern-keyed caches.
func (a *CSC) ShiftDiagonal(sigma float64) (*CSC, error) {
	if err := a.CheckDiagonal(); err != nil {
		return nil, err
	}
	out := &CSC{N: a.N, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: append([]float64(nil), a.Val...)}
	for j := 0; j < out.N; j++ {
		out.Val[out.mustDiag(j)] += sigma
	}
	return out, nil
}

// CheckDiagonal returns ShiftDiagonal's error for a structurally absent
// diagonal entry, nil when every one is present: the check a shift applied
// later, without a copy, makes up front.
func (a *CSC) CheckDiagonal() error {
	for j := 0; j < a.N; j++ {
		if a.pos(j, j) < 0 {
			return fmt.Errorf("sparse: diagonal entry (%d,%d) is structurally absent; cannot shift", j, j)
		}
	}
	return nil
}
