package pexsi

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"pselinv/internal/dense"
	"pselinv/internal/sparse"
)

// mustPoles builds a Matsubara pole set, failing the test on bad input.
func mustPoles(t testing.TB, count int, beta, mu float64) []ComplexPole {
	t.Helper()
	poles, err := MatsubaraPoles(count, beta, mu)
	if err != nil {
		t.Fatal(err)
	}
	return poles
}

func TestMatsubaraPoles(t *testing.T) {
	beta, mu := 4.0, 0.5
	poles := mustPoles(t, 6, beta, mu)
	for l, p := range poles {
		if real(p.Z) != mu {
			t.Fatalf("pole %d: Re(z) = %g, want %g", l, real(p.Z), mu)
		}
		want := float64(2*l+1) * math.Pi / beta
		if math.Abs(imag(p.Z)-want) > 1e-12 {
			t.Fatalf("pole %d: Im(z) = %g, want %g", l, imag(p.Z), want)
		}
		if real(p.Weight) != -2/beta || imag(p.Weight) != 0 {
			t.Fatalf("pole %d: weight %v", l, p.Weight)
		}
	}
}

func TestMatsubaraPolesErrors(t *testing.T) {
	if _, err := MatsubaraPoles(0, 1, 0); err == nil {
		t.Error("non-positive count: expected error")
	}
	if _, err := MatsubaraPoles(3, -1, 0); err == nil {
		t.Error("non-positive beta: expected error")
	}
}

// denseShiftedInverse returns (A − zI)⁻¹ as a lookup, computed as the
// pivoted real inverse of the 2n×2n embedding [[Re, −Im], [Im, Re]] — an
// oracle that shares no complex kernel with the code under test.
func denseShiftedInverse(t *testing.T, a *sparse.CSC, z complex128) func(i, j int) complex128 {
	t.Helper()
	n := a.N
	m := dense.NewMatrix(2*n, 2*n)
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			m.Set(a.RowIdx[k], j, a.Val[k])
			m.Set(n+a.RowIdx[k], n+j, a.Val[k])
		}
		m.Add(j, j, -real(z))
		m.Add(n+j, n+j, -real(z))
		m.Set(j, n+j, imag(z))
		m.Set(n+j, j, -imag(z))
	}
	inv, err := dense.Inverse(m)
	if err != nil {
		t.Fatal(err)
	}
	return func(i, j int) complex128 { return complex(inv.At(i, j), inv.At(n+i, j)) }
}

// denseTruncatedFermi computes the same truncated expansion densely.
func denseTruncatedFermi(t *testing.T, a *sparse.CSC, poles []ComplexPole) []float64 {
	t.Helper()
	out := make([]float64, a.N)
	for i := range out {
		out[i] = 0.5
	}
	for _, p := range poles {
		inv := denseShiftedInverse(t, a, p.Z)
		for i := range out {
			out[i] += real(p.Weight * inv(i, i))
		}
	}
	return out
}

func TestRunComplexMatchesDense(t *testing.T) {
	h := sparse.Grid2D(5, 5, 3)
	poles := mustPoles(t, 5, 2.0, 10.0)
	res, err := RunComplex(h, ComplexConfig{Poles: poles, Relax: 2, MaxWidth: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := denseTruncatedFermi(t, h.A, poles)
	for i := range want {
		if math.Abs(res.Density[i]-want[i]) > 1e-8 {
			t.Fatalf("density[%d] = %g, want %g", i, res.Density[i], want[i])
		}
	}
	if len(res.LogDets) != 5 {
		t.Fatalf("logdets: %d", len(res.LogDets))
	}
	for l, ld := range res.LogDets {
		if cmplx.IsNaN(ld) {
			t.Fatalf("pole %d: NaN logdet", l)
		}
	}
}

func TestRunComplexParallelDeterministic(t *testing.T) {
	h := sparse.Banded(18, 2, 5)
	poles := mustPoles(t, 4, 3.0, 2.0)
	seq, err := RunComplex(h, ComplexConfig{Poles: poles, MaxWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunComplex(h, ComplexConfig{Poles: poles, MaxWidth: 4, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Density {
		if seq.Density[i] != par.Density[i] {
			t.Fatal("parallel pole evaluation changed the density")
		}
	}
}

func TestRunComplexConvergesTowardFermi(t *testing.T) {
	// With μ far above the spectrum, f(H) → I (all states occupied), so
	// the truncated density diag should approach 1 as poles are added.
	h := sparse.Banded(10, 1, 2)
	// Spectrum of the generated matrix is positive and bounded; place μ
	// well above it.
	mu := 100.0
	errAt := func(count int) float64 {
		res, err := RunComplex(h, ComplexConfig{Poles: mustPoles(t, count, 0.5, mu), MaxWidth: 3})
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, v := range res.Density {
			worst = math.Max(worst, math.Abs(v-1))
		}
		return worst
	}
	few, many := errAt(4), errAt(64)
	if many >= few {
		t.Fatalf("adding poles did not converge: %g -> %g", few, many)
	}
}

func TestRunComplexNoPoles(t *testing.T) {
	if _, err := RunComplex(sparse.Banded(5, 1, 1), ComplexConfig{}); err == nil {
		t.Fatal("expected error")
	}
}

// TestRunComplexEmptyMatrix: an n = 0 Hamiltonian is an error, not a panic
// in the analysis, on the serial reference and on the engine.
func TestRunComplexEmptyMatrix(t *testing.T) {
	poles := mustPoles(t, 2, 2.0, 50.0)
	for _, procs := range []int{1, 4} {
		_, err := RunComplex(sparse.Grid2D(0, 0, 1), ComplexConfig{Poles: poles, Procs: procs, Parallel: true})
		if err == nil || !strings.Contains(err.Error(), "empty matrix") {
			t.Fatalf("procs %d: got %v, want an empty-matrix error", procs, err)
		}
	}
}
