package pselinv

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"pselinv/internal/dense"
	"pselinv/internal/sparse"
)

// Shifted records σ and the factor scatter adds it on the diagonal; these
// tests pin that nothing a caller can observe differs from the shifted copy of
// the values Shifted used to make.

// copyShifted is the reference: m + σI as a matrix of its own, its values
// copied by sparse.CSC.ShiftDiagonal.
func copyShifted(t *testing.T, m *Matrix, sigma float64) *Matrix {
	t.Helper()
	a, err := m.materialized().A.ShiftDiagonal(sigma)
	if err != nil {
		t.Fatal(err)
	}
	return &Matrix{gen: &sparse.Generated{A: a, Name: m.Name(), Geom: m.gen.Geom}}
}

// sameInverse fails unless the two selected inverses hold the same blocks,
// word for word.
func sameInverse(t *testing.T, what string, want, got *Inverse) {
	t.Helper()
	nw, ng := 0, 0
	got.ainv.Range(func(int, int, *dense.Matrix) { ng++ })
	want.ainv.Range(func(i, j int, w *dense.Matrix) {
		nw++
		g, ok := got.ainv.Get(i, j)
		if !ok || len(g.Data) != len(w.Data) || g.Elem != w.Elem {
			t.Fatalf("%s: block (%d,%d) missing or of another shape", what, i, j)
		}
		for x := range w.Data {
			if math.Float64bits(g.Data[x]) != math.Float64bits(w.Data[x]) {
				t.Fatalf("%s: block (%d,%d) word %d = %x, want %x", what, i, j, x,
					math.Float64bits(g.Data[x]), math.Float64bits(w.Data[x]))
			}
		}
	})
	if nw != ng {
		t.Fatalf("%s: %d blocks, want %d", what, ng, nw)
	}
}

// TestLazyShiftBitIdentical: Factorize → SelInv and ParallelSelInv at P = 1
// and 16 (DAG off and on), and FactorizeShifted with a complex pole on top of
// the real shift, give the bits of the copied values — on symmetric and on
// general values, for a single and a nested shift.
func TestLazyShiftBitIdentical(t *testing.T) {
	for _, base := range []*Matrix{DG2D(5, 5, 3, 1), DG2D(5, 5, 3, 1).Asymmetrize(4, 0.3)} {
		sym, err := AnalyzePattern(base, Options{Ordering: OrderNestedDissection, MaxWidth: 12})
		if err != nil {
			t.Fatal(err)
		}
		once, err := base.Shifted(0.37)
		if err != nil {
			t.Fatal(err)
		}
		twice, err := once.Shifted(-1.0 / 3)
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name       string
			lazy, copy *Matrix
		}{
			{"shift", once, copyShifted(t, base, 0.37)},
			{"nested shift", twice, copyShifted(t, copyShifted(t, base, 0.37), -1.0/3)},
		}
		for _, c := range cases {
			label := fmt.Sprintf("%s %s", base.Name(), c.name)
			factorize := func(m *Matrix, z complex128) *System {
				t.Helper()
				var sys *System
				var err error
				if z == 0 {
					sys, err = sym.Factorize(m)
				} else {
					sys, err = sym.FactorizeShifted(m, z)
				}
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			for _, z := range []complex128{0, complex(0.2, 0.9)} {
				want, got := factorize(c.copy, z), factorize(c.lazy, z)
				if got.Symmetric() != want.Symmetric() {
					t.Fatalf("%s z=%v: Symmetric = %v, want %v", label, z, got.Symmetric(), want.Symmetric())
				}
				ws, _ := want.SelInv()
				gs, _ := got.SelInv()
				sameInverse(t, fmt.Sprintf("%s z=%v SelInv", label, z), ws, gs)
				for _, procs := range []int{1, 16} {
					for _, dag := range []bool{false, true} {
						want.SetDAG(dag)
						got.SetDAG(dag)
						wp, err := want.ParallelSelInv(procs, ShiftedBinaryTree, 1)
						if err != nil {
							t.Fatal(err)
						}
						gp, err := got.ParallelSelInv(procs, ShiftedBinaryTree, 1)
						if err != nil {
							t.Fatal(err)
						}
						sameInverse(t, fmt.Sprintf("%s z=%v P=%d dag=%v", label, z, procs, dag), wp.Inverse, gp.Inverse)
						wp.Release()
						gp.Release()
					}
				}
			}
			var wmm, gmm bytes.Buffer
			if err := c.copy.WriteMatrixMarket(&wmm); err != nil {
				t.Fatal(err)
			}
			if err := c.lazy.WriteMatrixMarket(&gmm); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wmm.Bytes(), gmm.Bytes()) {
				t.Fatalf("%s: WriteMatrixMarket bytes differ from the copied values'", label)
			}
		}
	}
}

// TestShiftedMissingDiagonalError: a structurally absent diagonal entry fails
// Shifted with the error the copying shift gave.
func TestShiftedMissingDiagonalError(t *testing.T) {
	// [[2 1] [1 ·]]: column 1 has no diagonal entry.
	a := &sparse.CSC{N: 2, ColPtr: []int{0, 2, 3}, RowIdx: []int{0, 1, 0}, Val: []float64{2, 1, 1}}
	m := &Matrix{gen: &sparse.Generated{A: a, Name: "holey"}}
	_, want := a.ShiftDiagonal(0.5)
	if want == nil {
		t.Fatal("ShiftDiagonal accepted a missing diagonal")
	}
	if _, err := m.Shifted(0.5); err == nil || err.Error() != fmt.Sprintf("pselinv: holey: %v", want) {
		t.Fatalf("Shifted error = %v, want pselinv: holey: %v", err, want)
	}
}

// TestAsymmetrizeLeavesShiftedViewAlone: a Shifted view shares its source's
// values, so Asymmetrize on either must perturb a copy — the other's values
// (and so its factorization) stay what they were.
func TestAsymmetrizeLeavesShiftedViewAlone(t *testing.T) {
	values := func(m *Matrix) []float64 { return append([]float64(nil), m.materialized().A.Val...) }
	same := func(what string, want, got []float64) {
		t.Helper()
		for p := range want {
			if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
				t.Fatalf("%s: value %d changed from %g to %g", what, p, want[p], got[p])
			}
		}
	}
	m := DG2D(4, 4, 2, 3)
	sh, err := m.Shifted(0.5)
	if err != nil {
		t.Fatal(err)
	}
	view := values(sh)
	m.Asymmetrize(7, 0.4)
	same("the view after its source's Asymmetrize", view, values(sh))
	if !sh.IsSymmetric() || m.IsSymmetric() {
		t.Fatalf("IsSymmetric: view %v, source %v; want true, false", sh.IsSymmetric(), m.IsSymmetric())
	}

	m = DG2D(4, 4, 2, 3)
	src := values(m)
	if sh, err = m.Shifted(0.5); err != nil {
		t.Fatal(err)
	}
	ref := copyShifted(t, m, 0.5).Asymmetrize(7, 0.4)
	sh.Asymmetrize(7, 0.4)
	same("the source after its view's Asymmetrize", src, values(m))
	same("the view's Asymmetrize vs the copied values'", values(ref), values(sh))
}
