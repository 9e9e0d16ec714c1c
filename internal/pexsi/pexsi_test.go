package pexsi

import (
	"math"
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/sparse"
)

func TestFermiPoles(t *testing.T) {
	poles := FermiPoles(5, 0.5, 2)
	if len(poles) != 5 {
		t.Fatalf("got %d poles", len(poles))
	}
	wsum := 0.0
	for l, p := range poles {
		wsum += p.Weight
		if l > 0 {
			if p.Shift <= poles[l-1].Shift {
				t.Fatal("shifts not increasing")
			}
			if p.Weight >= poles[l-1].Weight {
				t.Fatal("weights not decreasing")
			}
		}
	}
	if math.Abs(wsum-1) > 1e-12 {
		t.Fatalf("weights sum to %g", wsum)
	}
}

func TestFermiPolesPanicsOnZeroCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FermiPoles(0, 1, 2)
}

// densityReference computes Σ wₗ diag((A+σₗI)⁻¹) densely.
func densityReference(t *testing.T, a *sparse.CSC, poles []Pole) []float64 {
	t.Helper()
	out := make([]float64, a.N)
	for _, p := range poles {
		shifted, err := a.ShiftDiagonal(p.Shift)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := dense.Inverse(shifted.ToDense())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < a.N; i++ {
			out[i] += p.Weight * inv.At(i, i)
		}
	}
	return out
}

func TestRunMatchesDenseReference(t *testing.T) {
	h := sparse.Grid2D(6, 6, 4)
	poles := FermiPoles(4, 0.5, 3)
	res, err := Run(h, Config{
		Poles: poles, ProcsPerPole: 9, Scheme: core.ShiftedBinaryTree,
		Relax: 2, MaxWidth: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := densityReference(t, h.A, poles)
	for i := range want {
		if math.Abs(res.Density[i]-want[i]) > 1e-8 {
			t.Fatalf("density[%d] = %g, want %g", i, res.Density[i], want[i])
		}
	}
	if len(res.Stats) != 4 {
		t.Fatalf("stats for %d poles", len(res.Stats))
	}
	for l, st := range res.Stats {
		if st.MaxSentMB <= 0 {
			t.Fatalf("pole %d: no communication measured", l)
		}
	}
}

func TestRunParallelPoleGroups(t *testing.T) {
	h := sparse.Grid2D(5, 5, 9)
	poles := FermiPoles(3, 1, 2)
	seq, err := Run(h, Config{Poles: poles, ProcsPerPole: 4, Scheme: core.BinaryTree, MaxWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(h, Config{Poles: poles, ProcsPerPole: 4, Scheme: core.BinaryTree, MaxWidth: 4, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Density {
		if math.Abs(seq.Density[i]-par.Density[i]) > 1e-12 {
			t.Fatal("concurrent pole groups changed the density")
		}
	}
}

func TestRunSingleRankFallback(t *testing.T) {
	h := sparse.Banded(20, 2, 3)
	poles := []Pole{{Shift: 1, Weight: 0.5}, {Shift: 2, Weight: 0.5}}
	res, err := Run(h, Config{Poles: poles, ProcsPerPole: 1, MaxWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := densityReference(t, h.A, poles)
	for i := range want {
		if math.Abs(res.Density[i]-want[i]) > 1e-8 {
			t.Fatalf("density[%d] wrong in sequential fallback", i)
		}
	}
}

func TestRunErrorsWithoutPoles(t *testing.T) {
	if _, err := Run(sparse.Banded(5, 1, 1), Config{}); err == nil {
		t.Fatal("expected error")
	}
}

// TestRunAsymmetricHamiltonian: an asymmetric H must take the general path
// on several ranks per pole as well as the serial one on a single rank (Run
// used to pin the symmetric plan without looking at H, and returned the
// mirrored inverse's density).
func TestRunAsymmetricHamiltonian(t *testing.T) {
	h := sparse.RandomAsym(25, 3, 7)
	poles := FermiPoles(2, 1, 2)
	want := densityReference(t, h.A, poles)
	for _, procs := range []int{1, 4} {
		res, err := Run(h, Config{Poles: poles, ProcsPerPole: procs, MaxWidth: 5})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(res.Density[i]-want[i]) > 1e-8 {
				t.Fatalf("procs %d: asym density[%d] wrong", procs, i)
			}
		}
	}
}
